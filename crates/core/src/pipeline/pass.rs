//! The named pass stages of the optimizer pipeline.

use std::rc::Rc;
use std::time::Instant;

use crate::balance::{loop_balance, BalanceInputs};
use crate::brute::measure_candidate;
use crate::costmodel::{CostModelKind, Profiler};
use crate::driver::{BalanceModel, Prediction};
use crate::pipeline::batch::parallel_map_indexed;
use crate::pipeline::cancel::{CancelToken, DEADLINE_CHECK_STRIDE};
use crate::pipeline::{AnalysisCtx, OptimizeError};
use crate::space::UnrollSpace;
use crate::tables::CostTables;
use ujam_dep::UNROLL_CAP;
use ujam_ir::{transform::unroll_and_jam, LoopNest};
use ujam_machine::MachineModel;
use ujam_reuse::{ugs_cost, Localized};
use ujam_trace::{ExplainRecord, TraceRecord, Verdict};

/// One stage of the optimizer pipeline.
///
/// A pass borrows the shared [`AnalysisCtx`] mutably (so its queries
/// are memoized across stages) and returns an owned product, which
/// keeps the stages independently runnable and swappable — see
/// [`BruteSearch`] for a drop-in [`SearchSpace`] alternative.
pub trait Pass {
    /// The stage's product.
    type Output;

    /// The stage's name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage against the shared context.
    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<Self::Output, OptimizeError>;

    /// Runs the stage, emitting a wall-time span to the context's trace
    /// sink and an observation into the `pass.<name>.ns` histogram of
    /// the context's metrics handle.  With both observers disabled this
    /// is exactly [`Pass::run`] — two `enabled()` checks are the only
    /// added work, which is what keeps the [`ujam_trace::NullSink`] /
    /// disabled-metrics path within noise of untraced code.
    fn run_traced(&self, ctx: &mut AnalysisCtx<'_>) -> Result<Self::Output, OptimizeError> {
        let tracing = ctx.tracing();
        let metering = ctx.metrics().enabled();
        if !tracing && !metering {
            return self.run(ctx);
        }
        let t0 = Instant::now();
        let out = self.run(ctx);
        let nanos = t0.elapsed().as_nanos();
        if tracing {
            ctx.sink()
                .record(TraceRecord::span(ctx.nest().name(), self.name(), nanos));
        }
        if metering {
            ctx.metrics()
                .observe(&format!("pass.{}.ns", self.name()), nanos as u64);
        }
        out
    }
}

/// Stage 1 (§4.5): pick up to [`SelectLoops::max_loops`] loops to
/// unroll — the loops whose localization removes the most cache traffic
/// by Equation 1 — bounded by the dependence-safety limits, and box
/// them into an [`UnrollSpace`].
///
/// The paper restricts the search to at most two loops; the default
/// preserves that arm.  Register tiling over deeper nests raises the
/// cap: with `max_loops = k` the resulting space spans up to k
/// dimensions, and `max_loops = 0` means unbounded (every jammable loop
/// with a positive locality score joins the space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectLoops {
    /// Most loops the unroll space may span; `0` = unbounded.  The
    /// default of 2 reproduces the paper's §4.5 selection exactly.
    pub max_loops: usize,
}

impl Default for SelectLoops {
    fn default() -> SelectLoops {
        SelectLoops { max_loops: 2 }
    }
}

impl Pass for SelectLoops {
    type Output = UnrollSpace;

    fn name(&self) -> &'static str {
        "select-loops"
    }

    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<UnrollSpace, OptimizeError> {
        ctx.check_cancelled()?;
        let depth = ctx.nest().depth();
        let line = ctx.machine().line_elems();
        let bounds = ctx.safe_bounds().to_vec();
        // The innermost loop (depth - 1) is deliberately excluded from
        // candidacy: unroll-and-jam replicates a loop's body *into* the
        // innermost loop, so unrolling the innermost loop itself is
        // plain inner unrolling — outside the paper's transformation —
        // and `UnrollSpace::with_bounds` rejects it outright.  The
        // exclusion is therefore structural, not a scoring decision;
        // the trace event below makes it observable when it bites.
        let mut scored: Vec<(usize, f64)> = (0..depth.saturating_sub(1))
            .filter(|&l| bounds[l] >= 1)
            .map(|l| (l, ctx.locality_score(l, line)))
            .collect();
        // Highest locality benefit first; ties prefer outer position.
        // `total_cmp` keeps the sort total even if a degenerate nest
        // yields a non-finite score (the seed's `partial_cmp(..).expect`
        // panicked there).
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let take = if self.max_loops == 0 {
            usize::MAX
        } else {
            self.max_loops
        };
        let mut chosen: Vec<usize> = scored
            .iter()
            .filter(|&&(_, s)| s > 0.0)
            .take(take)
            .map(|&(l, _)| l)
            .collect();
        // A memory-bound loop can still profit from pure flop replication
        // (merging loads of invariant or group-reusing references); keep at
        // least one candidate when any loop is jammable.
        if chosen.is_empty() {
            if let Some(&(l, _)) = scored.first() {
                chosen.push(l);
            }
        }
        chosen.sort_unstable();
        if ctx.tracing() {
            // Record when the structurally-excluded innermost loop
            // out-scores every selectable loop — the case where the
            // exclusion actually changed the ranking.  The incremental
            // score used for outer loops is identically zero for the
            // innermost (it is already in every localized space), so its
            // comparable figure is the locality its localization already
            // provides: cost with nothing localized minus cost with the
            // innermost localized.
            if depth >= 1 {
                let inner = depth - 1;
                let none = Localized::new(depth, &[]);
                let inner_loc = Localized::innermost(depth);
                let inner_score: f64 = ctx
                    .ugs()
                    .iter()
                    .map(|s| ugs_cost(s, &none, line) - ugs_cost(s, &inner_loc, line))
                    .sum();
                let top = scored.first().map_or(f64::NEG_INFINITY, |&(_, s)| s);
                if inner_score > top {
                    ctx.sink().record(TraceRecord::event(
                        ctx.nest().name(),
                        &format!(
                            "innermost loop {inner} excluded despite top locality \
                             score {inner_score:.3} (best selectable: {top:.3})"
                        ),
                    ));
                    ctx.sink().record(TraceRecord::counter(
                        ctx.nest().name(),
                        "select.innermost_excluded",
                        1,
                    ));
                }
            }
            ctx.sink().record(TraceRecord::event(
                ctx.nest().name(),
                &format!("selected loops {chosen:?} (locality scores {scored:?})"),
            ));
        }
        // Each chosen loop searches up to its own safety bound, capped
        // for tractability.
        let per_loop: Vec<u32> = chosen
            .iter()
            .map(|&l| bounds[l].min(UNROLL_CAP).min(8))
            .collect();
        Ok(UnrollSpace::with_bounds(depth, &chosen, &per_loop))
    }
}

/// Stage 2 (§4.2–§4.4): build (or fetch from the context cache) the
/// GTS/GSS/RRS/register tables for an unroll space.
#[derive(Clone, Debug)]
pub struct BuildTables {
    /// The space to tabulate.
    pub space: UnrollSpace,
}

impl Pass for BuildTables {
    type Output = Rc<CostTables>;

    fn name(&self) -> &'static str {
        "build-tables"
    }

    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<Rc<CostTables>, OptimizeError> {
        ctx.check_cancelled()?;
        ctx.tables(&self.space)
    }
}

/// What a search stage found: the winning offset, its full per-loop
/// unroll vector, and the predicted behaviour before and after.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The winning offset in space coordinates.
    pub offset: Vec<u32>,
    /// The winning offset embedded as a full per-nest-loop vector.
    pub unroll: Vec<u32>,
    /// Predicted behaviour at the chosen vector.
    pub predicted: Prediction,
    /// Predicted behaviour of the original loop (`u = 0`).
    pub original: Prediction,
}

/// One candidate's fate during a search, before it is stamped into an
/// [`ExplainRecord`]: the space-offset, what was measured, and why it
/// was kept or dropped.
struct CandidateFate {
    u: Vec<u32>,
    beta: Option<f64>,
    registers: Option<i64>,
    verdict: Verdict,
}

/// What [`search_over`] found: the winning offset, its measured inputs
/// (`None` when nothing beat `u = 0`), how many candidates were skipped
/// by monotone up-set pruning, and whether the walk was abandoned by a
/// fired [`CancelToken`] (in which case the other fields are partial
/// and the caller must surface [`OptimizeError::DeadlineExceeded`]).
struct SearchResult {
    best: Vec<u32>,
    best_inputs: Option<BalanceInputs>,
    pruned_upset: usize,
    cancelled: bool,
}

/// Shared search objective (§3.3): minimize `|β − β_M|` subject to the
/// register budget — and, when `max_copies` is set, a code-size budget
/// — ties preferring fewer body copies.
///
/// Candidates are visited in lexicographic order by a recursive walk
/// that reuses one scratch offset vector — no per-candidate allocation.
/// The walk also maintains the candidate's flat row-major index
/// incrementally during descent (one add per level) and hands it to
/// `inputs_at`, so table-backed scorers read their finalized sums by
/// index without re-deriving it per query.
/// With `prune_upsets` set (sound only when the register tables are
/// monotone in `u`), an over-budget candidate whose trailing dimensions
/// are all zero prunes every lexicographically-later sibling subtree:
/// each such candidate dominates the over-budget one component-wise, so
/// by monotonicity it is over budget too.  Pruned candidates are
/// counted in closed form and never measured.
///
/// `max_copies` caps the unrolled body's size in copies of the original
/// body (`Π (uᵢ + 1)`), an icache proxy.  Unlike the register tables,
/// copy count is multiplicative in `u` and therefore monotone by
/// construction, so `prune_code` needs no table-monotonicity gate — it
/// reuses the same up-set skip, which keeps one record per offset.
///
/// With `explain` present, every candidate's fate is recorded — even
/// pruned-up-set ones, so the records always cover the whole space:
/// exactly one record carries [`Verdict::Won`] — the offset this
/// function returns — and the rest say why they lost (`dominated`),
/// were pruned (`pruned_registers`, `pruned_divisibility`,
/// `pruned_code_size`, `pruned_upset`), or could not be measured
/// (`infeasible`).
#[allow(clippy::too_many_arguments)]
fn search_over(
    machine: &MachineModel,
    space: &UnrollSpace,
    inputs_at: impl FnMut(&[u32], usize) -> Option<BalanceInputs>,
    beta_of: impl Fn(&BalanceInputs) -> f64,
    divisible: impl Fn(&[u32]) -> bool,
    prune_upsets: bool,
    max_copies: Option<usize>,
    prune_code: bool,
    explain: Option<&mut Vec<CandidateFate>>,
    cancel: &CancelToken,
) -> SearchResult {
    // suffix[d] = how many offsets one subtree at level d spans — the
    // closed-form size of a pruned sibling subtree.  Note suffix[d + 1]
    // is also the space's row-major stride of dimension d, which is
    // what lets `descend` keep the flat index with one add per level.
    let mut suffix = vec![1usize; space.dims() + 1];
    for d in (0..space.dims()).rev() {
        suffix[d] = suffix[d + 1] * (space.bounds()[d] as usize + 1);
    }
    let mut walk = Walk {
        beta_m: machine.balance(),
        regs: machine.registers_for_replacement() as i64,
        space,
        inputs_at,
        beta_of,
        divisible,
        prune_upsets,
        max_copies,
        prune_code,
        explain,
        suffix,
        u: vec![0u32; space.dims()],
        flat: 0,
        best: vec![0u32; space.dims()],
        best_inputs: None,
        best_score: (f64::INFINITY, usize::MAX),
        best_rec: None,
        pruned_upset: 0,
        cancel,
        visits: 0,
        cancelled: false,
    };
    walk.descend(0);
    let Walk {
        explain,
        best,
        best_inputs,
        best_rec,
        pruned_upset,
        cancelled,
        ..
    } = walk;
    if let Some(records) = explain {
        match best_rec {
            Some(i) => records[i].verdict = Verdict::Won,
            // Every candidate was pruned: the search falls back to
            // u = 0, so the zero record (if any) is what "won".
            None => {
                if let Some(rec) = records.iter_mut().find(|r| r.u == best) {
                    rec.verdict = Verdict::Won;
                }
            }
        }
    }
    SearchResult {
        best,
        best_inputs,
        pruned_upset,
        cancelled,
    }
}

/// The recursive state of one [`search_over`] walk.
struct Walk<'a, 's, I, B, D> {
    beta_m: f64,
    regs: i64,
    space: &'s UnrollSpace,
    inputs_at: I,
    beta_of: B,
    divisible: D,
    prune_upsets: bool,
    max_copies: Option<usize>,
    prune_code: bool,
    explain: Option<&'a mut Vec<CandidateFate>>,
    suffix: Vec<usize>,
    u: Vec<u32>,
    /// Flat row-major index of `u`, maintained incrementally by
    /// `descend` (`suffix[d + 1]` is dimension `d`'s stride).
    flat: usize,
    best: Vec<u32>,
    best_inputs: Option<BalanceInputs>,
    best_score: (f64, usize),
    best_rec: Option<usize>,
    pruned_upset: usize,
    cancel: &'s CancelToken,
    visits: u32,
    cancelled: bool,
}

impl<I, B, D> Walk<'_, '_, I, B, D>
where
    I: FnMut(&[u32], usize) -> Option<BalanceInputs>,
    B: Fn(&BalanceInputs) -> f64,
    D: Fn(&[u32]) -> bool,
{
    /// Walks dimensions `d..` with `u[..d]` fixed, in lexicographic
    /// order.  Returns true when the subtree's first candidate (the
    /// all-zero suffix) exceeded a monotone budget — registers or code
    /// size — the signal that every candidate dominating it can be
    /// skipped.
    fn descend(&mut self, d: usize) -> bool {
        if self.cancelled {
            // A fired token unwinds the whole recursion without visiting
            // (or recording) anything further; the partial result is
            // discarded by the caller.
            return false;
        }
        if d == self.space.dims() {
            return self.visit();
        }
        let bound = self.space.bounds()[d];
        let base = self.flat;
        for x in 0..=bound {
            self.u[d] = x;
            self.flat = base + x as usize * self.suffix[d + 1];
            if self.descend(d + 1) {
                // u[..d] ++ [x] ++ zeros is over budget: every sibling
                // subtree at x+1.. dominates it component-wise, so by
                // monotonicity none of them can fit either.
                if x < bound {
                    self.skip_upset(d, x + 1);
                }
                self.u[d] = 0;
                self.flat = base;
                // Only an all-zero suffix propagates the signal: for
                // x > 0 the next value of dimension d-1 resets this
                // dimension to 0 and no longer dominates `u`.
                return x == 0;
            }
        }
        self.u[d] = 0;
        self.flat = base;
        false
    }

    /// Accounts for the sibling subtrees `u[d] = from..=bounds[d]`
    /// (under the current `u[..d]` prefix) without measuring them:
    /// bumps the pruned counter by the closed-form subtree size and,
    /// when explaining, records a `pruned_upset` fate for each offset
    /// in lexicographic order.
    fn skip_upset(&mut self, d: usize, from: u32) {
        let bound = self.space.bounds()[d];
        self.pruned_upset += (bound - from + 1) as usize * self.suffix[d + 1];
        if self.explain.is_some() {
            for x in from..=bound {
                self.u[d] = x;
                self.record_subtree(d + 1);
            }
        }
    }

    /// Emits a `pruned_upset` fate for every offset of the subtree
    /// below the current `u[..d]` prefix.
    fn record_subtree(&mut self, d: usize) {
        if d == self.space.dims() {
            self.fate(None, None, Verdict::PrunedUpset);
            return;
        }
        for x in 0..=self.space.bounds()[d] {
            self.u[d] = x;
            self.record_subtree(d + 1);
        }
        self.u[d] = 0;
    }

    fn fate(&mut self, beta: Option<f64>, registers: Option<i64>, verdict: Verdict) {
        if let Some(records) = self.explain.as_deref_mut() {
            records.push(CandidateFate {
                u: self.u.clone(),
                beta,
                registers,
                verdict,
            });
        }
    }

    /// Scores the candidate at `u`.  Returns true when it is over the
    /// register or code-size budget and the matching pruning flag is on
    /// (the up-set skip signal).
    fn visit(&mut self) -> bool {
        // Candidate-granularity cancellation: the explicit flag is one
        // relaxed load and is polled every candidate; the deadline clock
        // only every `DEADLINE_CHECK_STRIDE`-th.
        self.visits = self.visits.wrapping_add(1);
        if self.cancel.flag_raised()
            || (self.visits.is_multiple_of(DEADLINE_CHECK_STRIDE) && self.cancel.is_cancelled())
        {
            self.cancelled = true;
            return false;
        }
        if !(self.divisible)(&self.u) {
            self.fate(None, None, Verdict::PrunedDivisibility);
            return false;
        }
        // The code-size check precedes measurement: an over-budget body
        // never needs its tables queried (or, in the brute search, its
        // body materialised).
        if let Some(max) = self.max_copies {
            if self.space.copies(&self.u) > max {
                self.fate(None, None, Verdict::PrunedCodeSize);
                return self.prune_code;
            }
        }
        let Some(inputs) = (self.inputs_at)(&self.u, self.flat) else {
            self.fate(None, None, Verdict::Infeasible);
            return false;
        };
        if inputs.registers > self.regs {
            self.fate(None, Some(inputs.registers), Verdict::PrunedRegisters);
            return self.prune_upsets;
        }
        let beta = (self.beta_of)(&inputs);
        self.fate(Some(beta), Some(inputs.registers), Verdict::Dominated);
        let score = ((beta - self.beta_m).abs(), self.space.copies(&self.u));
        if score.0 < self.best_score.0 - 1e-12
            || ((score.0 - self.best_score.0).abs() <= 1e-12 && score.1 < self.best_score.1)
        {
            self.best_score = score;
            self.best.clear();
            self.best.extend_from_slice(&self.u);
            self.best_inputs = Some(inputs);
            if let Some(records) = self.explain.as_deref() {
                self.best_rec = Some(records.len() - 1);
            }
        }
        false
    }
}

/// Converts a code-size budget (statements in the unrolled body) into
/// the walk's copy cap: `copies × stmts > budget ⇔ copies >
/// budget / stmts` (integer floor), so the cap loses nothing.
fn max_copies_for(code_budget: Option<usize>, nest: &LoopNest) -> Option<usize> {
    code_budget.map(|budget| budget / nest.body().len().max(1))
}

/// Stamps search-internal [`CandidateFate`]s into public
/// [`ExplainRecord`]s and emits them through the context's sink.
fn emit_explains(
    ctx: &AnalysisCtx<'_>,
    pass: &str,
    space: &UnrollSpace,
    fates: Vec<CandidateFate>,
) {
    let beta_m = ctx.machine().balance();
    for fate in fates {
        ctx.sink().record(TraceRecord::Explain(ExplainRecord {
            nest: ctx.nest().name().to_string(),
            pass: pass.to_string(),
            u: space.full_vector(&fate.u),
            beta: fate.beta,
            beta_m,
            registers: fate.registers,
            verdict: fate.verdict,
        }));
    }
}

/// Stage 3 (§4.5): search the unroll space for the offset minimizing
/// `|β_L(u) − β_M|` subject to the register constraint, scoring
/// candidates from the precomputed tables.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// The space to search.
    pub space: UnrollSpace,
    /// Which balance model scores candidates.
    pub model: BalanceModel,
    /// Which cache-cost source supplies the `cache_lines` input.
    /// [`CostModelKind::Analytic`] reads the Eq. 1 tables verbatim —
    /// the classic, bitwise-identical path; [`CostModelKind::Profiled`]
    /// measures each candidate under the IR interpreter.
    pub cost: CostModelKind,
    /// Code-size budget: the most *statements* the unrolled body may
    /// hold (`copies × original statements`, an icache proxy).  `None`
    /// disables the constraint.
    pub code_budget: Option<usize>,
}

impl Pass for SearchSpace {
    type Output = SearchOutcome;

    fn name(&self) -> &'static str {
        "search-space"
    }

    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<SearchOutcome, OptimizeError> {
        ctx.check_cancelled()?;
        let tables = BuildTables {
            space: self.space.clone(),
        }
        .run_traced(ctx)?;
        let nest = ctx.nest();
        let machine = ctx.machine();
        let space = &self.space;
        let mut scorer = Scorer::new(nest, machine, space, &tables, self.model);
        if self.cost == CostModelKind::Profiled {
            scorer.profiler = Some(Profiler::new(nest, machine, space.len()));
        }
        let original = scorer.inputs_at(&vec![0u32; space.dims()], 0);
        // Up-set pruning is sound exactly when every register table is
        // monotone in u; the tables checked this once at build time.
        // The code-size budget needs no such gate: copy count is
        // multiplicative in u, hence monotone by construction.
        let mut fates = ctx.tracing().then(Vec::new);
        let found = scorer.search(
            tables.registers_monotone(),
            max_copies_for(self.code_budget, nest),
            true,
            fates.as_mut(),
            ctx.cancel_token(),
        );
        if found.cancelled {
            return Err(OptimizeError::DeadlineExceeded);
        }
        if let Some(p) = scorer.profiler.filter(|p| p.profiles > 0) {
            if ctx.tracing() {
                ctx.sink().record(TraceRecord::span(
                    ctx.nest().name(),
                    "profile",
                    u128::from(p.profile_ns),
                ));
                ctx.sink().record(TraceRecord::counter(
                    ctx.nest().name(),
                    "profile.candidates",
                    p.profiles,
                ));
            }
            if ctx.metrics().enabled() {
                ctx.metrics().count("profile.candidates", p.profiles);
                ctx.metrics().count("profile.accesses", p.accesses);
                ctx.metrics().observe("profile.ns", p.profile_ns);
            }
        }
        if ctx.tracing() {
            ctx.sink().record(TraceRecord::counter(
                ctx.nest().name(),
                "search.pruned_upset",
                found.pruned_upset as u64,
            ));
        }
        if let Some(fates) = fates {
            emit_explains(ctx, self.name(), space, fates);
        }
        let predicted = found.best_inputs.unwrap_or(original);
        Ok(SearchOutcome {
            unroll: space.full_vector(&found.best),
            offset: found.best,
            predicted: Prediction::from_inputs(&predicted, machine),
            original: Prediction::from_inputs(&original, machine),
        })
    }
}

/// The table-driven candidate scorer behind both [`SearchSpace`] and
/// [`search_tables`]: the tables (plus, for
/// [`CostModelKind::Profiled`], a profiler supplying `cache_lines`)
/// give a candidate's [`BalanceInputs`] at its flat index.
struct Scorer<'a> {
    nest: &'a LoopNest,
    machine: &'a MachineModel,
    space: &'a UnrollSpace,
    tables: &'a CostTables,
    model: BalanceModel,
    /// Whether the tables answer O(1) flat reads.  Tables from
    /// [`BuildTables`] always do; the search-scaling bench also drives
    /// definalized (density-domain) tables, which only answer by
    /// coordinates.
    flat_ok: bool,
    /// Measures `cache_lines` in place of Eq. 1; `None` is the analytic
    /// path.
    profiler: Option<Profiler<'a>>,
}

impl<'a> Scorer<'a> {
    fn new(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
        space: &'a UnrollSpace,
        tables: &'a CostTables,
        model: BalanceModel,
    ) -> Scorer<'a> {
        Scorer {
            nest,
            machine,
            space,
            tables,
            model,
            flat_ok: tables.flat_queryable(),
            profiler: None,
        }
    }

    /// The balance inputs of the candidate at offset `u`, whose flat
    /// row-major index is `flat`.
    fn inputs_at(&mut self, u: &[u32], flat: usize) -> BalanceInputs {
        let t = self.tables;
        let mut inputs = if self.flat_ok {
            let copies = self.space.copies(u);
            BalanceInputs {
                flops: t.flops_of_copies(copies) as f64,
                memory_ops: t.memory_ops_flat(flat, copies) as f64,
                cache_lines: t.cache_lines_flat(flat),
                registers: t.registers_flat(flat),
            }
        } else {
            BalanceInputs {
                flops: t.flops(u) as f64,
                memory_ops: t.memory_ops(u) as f64,
                cache_lines: t.cache_lines(u),
                registers: t.registers(u),
            }
        };
        if let Some(p) = self.profiler.as_mut() {
            inputs.cache_lines = p.lines_at(flat, || self.space.full_vector(u), inputs.cache_lines);
        }
        inputs
    }

    /// Runs [`search_over`] with this scorer; the factors must divide
    /// the trip counts for a clean transform.
    fn search(
        &mut self,
        prune_upsets: bool,
        max_copies: Option<usize>,
        prune_code: bool,
        explain: Option<&mut Vec<CandidateFate>>,
        cancel: &CancelToken,
    ) -> SearchResult {
        let (nest, machine, space, model) = (self.nest, self.machine, self.space, self.model);
        search_over(
            machine,
            space,
            |u, flat| Some(self.inputs_at(u, flat)),
            |inputs| match model {
                BalanceModel::AllHits => inputs.no_cache_balance(),
                BalanceModel::CacheAware => loop_balance(inputs, machine),
            },
            |u| {
                space
                    .loops()
                    .iter()
                    .zip(u)
                    .all(|(&l, &ul)| nest.loops()[l].trip_count() % (ul as i64 + 1) == 0)
            },
            prune_upsets,
            max_copies,
            prune_code,
            explain,
            cancel,
        )
    }
}

/// The bare table-driven search kernel behind [`SearchSpace`], exposed
/// so benchmarks and equivalence tests can drive the exact search code
/// path against prebuilt (finalized *or* raw) tables with pruning
/// toggled.  Returns the winning offset and the number of candidates
/// skipped by monotone up-set pruning (0 with `prune` off).
///
/// `code_budget` caps the unrolled body's statement count (`None`
/// disables it); with `prune` off, over-budget candidates are still
/// excluded but recorded individually rather than up-set-skipped, so
/// the two modes always agree on the winner.
///
/// Register pruning is additionally gated on
/// [`CostTables::registers_monotone`] — asking for it on non-monotone
/// tables silently degrades to the exhaustive walk, which is the only
/// sound behaviour.  The code-size constraint is monotone by
/// construction and needs no gate.
pub fn search_tables(
    nest: &LoopNest,
    machine: &MachineModel,
    space: &UnrollSpace,
    tables: &CostTables,
    model: BalanceModel,
    prune: bool,
    code_budget: Option<usize>,
) -> (Vec<u32>, usize) {
    let found = Scorer::new(nest, machine, space, tables, model).search(
        prune && tables.registers_monotone(),
        max_copies_for(code_budget, nest),
        prune,
        None,
        &CancelToken::never(),
    );
    (found.best, found.pruned_upset)
}

/// A drop-in [`SearchSpace`] alternative implementing Wolf, Maydan &
/// Chen's approach (§5.3): materialise every candidate body, run scalar
/// replacement and the reuse analysis on it, and score the result.
///
/// Same objective, same tie-breaking — the equivalence of the two
/// search stages is the paper's headline correctness claim and a test.
#[derive(Clone, Debug)]
pub struct BruteSearch {
    /// The space to search.
    pub space: UnrollSpace,
    /// Code-size budget in unrolled-body statements, as in
    /// [`SearchSpace::code_budget`].  Over-budget candidates are never
    /// materialised, but each is recorded individually (`Infeasible`-
    /// style exhaustiveness): the brute search stays the unpruned
    /// reference the agreement tests compare against.
    pub code_budget: Option<usize>,
}

impl Pass for BruteSearch {
    type Output = SearchOutcome;

    fn name(&self) -> &'static str {
        "brute-search"
    }

    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<SearchOutcome, OptimizeError> {
        ctx.check_cancelled()?;
        let nest = ctx.nest();
        let machine = ctx.machine();
        let space = &self.space;
        if space.depth() != nest.depth() {
            return Err(OptimizeError::DepthMismatch {
                nest: nest.depth(),
                space: space.depth(),
            });
        }

        let zero = vec![0u32; space.dims()];
        let original = measure_candidate(nest, &space.full_vector(&zero), machine)
            .map_err(OptimizeError::Transform)?;
        // Materializing a candidate (body construction, scalar
        // replacement, reuse analysis) dominates the walk and is pure
        // and independent per candidate, so fan it out across the batch
        // worker pool; the reduction below then runs sequentially over
        // the precomputed slots in input order, which keeps the winner
        // — tie-breaks included — bitwise-identical to a sequential
        // walk.  No up-set pruning here: the measured register counts
        // carry no monotonicity guarantee.
        let offsets: Vec<Vec<u32>> = space.offsets().collect();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let cancel = ctx.cancel_token();
        let max_copies = max_copies_for(self.code_budget, nest);
        let measured: Vec<Option<BalanceInputs>> =
            parallel_map_indexed(offsets.len(), workers, |i| {
                // Candidate-granularity cancellation: materialising a
                // body is the expensive unit here, so skip the remaining
                // ones as soon as the token fires (measure errors and
                // skips are both `None`; the post-walk check below turns
                // a fired token into the structured error).
                if cancel.is_cancelled() {
                    return None;
                }
                // An over-budget body is never materialised; the walk's
                // code-size check fires before this slot is read, so the
                // `None` is never mistaken for `Infeasible`.
                if max_copies.is_some_and(|max| space.copies(&offsets[i]) > max) {
                    return None;
                }
                measure_candidate(nest, &space.full_vector(&offsets[i]), machine).ok()
            });
        ctx.check_cancelled()?;
        let mut fates = ctx.tracing().then(Vec::new);
        let found = search_over(
            machine,
            space,
            |_u, flat| measured[flat],
            |inputs| loop_balance(inputs, machine),
            |_| true,
            false,
            max_copies,
            false,
            fates.as_mut(),
            cancel,
        );
        if found.cancelled {
            return Err(OptimizeError::DeadlineExceeded);
        }
        if let Some(fates) = fates {
            emit_explains(ctx, self.name(), space, fates);
        }
        let predicted = found.best_inputs.unwrap_or(original);
        Ok(SearchOutcome {
            unroll: space.full_vector(&found.best),
            offset: found.best,
            predicted: Prediction::from_inputs(&predicted, machine),
            original: Prediction::from_inputs(&original, machine),
        })
    }
}

/// Stage 4: apply the winning unroll vector with real unroll-and-jam.
#[derive(Clone, Debug)]
pub struct ApplyTransform {
    /// The full per-nest-loop unroll vector to apply.
    pub unroll: Vec<u32>,
}

impl Pass for ApplyTransform {
    type Output = LoopNest;

    fn name(&self) -> &'static str {
        "apply-transform"
    }

    fn run(&self, ctx: &mut AnalysisCtx<'_>) -> Result<LoopNest, OptimizeError> {
        ctx.check_cancelled()?;
        unroll_and_jam(ctx.nest(), &self.unroll).map_err(OptimizeError::Transform)
    }
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
    fn run_traced_emits_one_span_per_pass() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        let space = SelectLoops::default()
            .run_traced(&mut ctx)
            .expect("selects");
        SearchSpace {
            space,
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");
        let trace = sink.take();
        let names: Vec<&str> = trace.spans().map(|(_, name, _)| name).collect();
        assert_eq!(names, ["select-loops", "build-tables", "search-space"]);
        assert!(trace.spans().all(|(nest_name, _, _)| nest_name == "intro"));
    }

    #[test]
    fn run_traced_without_a_sink_is_plain_run() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let mut traced = AnalysisCtx::new(&nest, &machine).expect("valid");
        let mut plain = AnalysisCtx::new(&nest, &machine).expect("valid");
        let a = SelectLoops::default()
            .run_traced(&mut traced)
            .expect("selects");
        let b = SelectLoops::default().run(&mut plain).expect("selects");
        assert_eq!(a, b);
    }

    /// Pins the structural exclusion of the innermost loop (§4.5): it
    /// never joins the unroll space — unrolling it would be plain inner
    /// unrolling, not unroll-and-jam — and when its already-localized
    /// locality tops every selectable loop's incremental score, the
    /// exclusion is recorded as a trace event plus the
    /// `select.innermost_excluded` counter rather than passing silently.
    #[test]
    fn innermost_exclusion_is_structural_and_observable() {
        // Stride-1 innermost loop: the inner I carries all the spatial
        // locality, so its inherent score tops the outer candidates.
        let nest = NestBuilder::new("inner_top")
            .array("A", &[244, 244])
            .array("B", &[244, 244])
            .loop_("J", 1, 240)
            .loop_("I", 1, 240)
            .stmt("A(I,J) = A(I,J) + B(I,J)")
            .build();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        let space = SelectLoops::default()
            .run_traced(&mut ctx)
            .expect("selects");
        let inner = nest.depth() - 1;
        assert!(
            !space.loops().contains(&inner),
            "innermost loop must never join the unroll space"
        );
        let trace = sink.take();
        let noted = trace.records.iter().any(|r| {
            matches!(
                r,
                TraceRecord::Event { message, .. } if message.contains("innermost loop 1 excluded")
            )
        });
        assert!(noted, "exclusion event missing: {:?}", trace.records);
        let counted = trace
            .counter_totals()
            .iter()
            .any(|(n, c, v)| n == "inner_top" && c == "select.innermost_excluded" && *v == 1);
        assert!(counted, "select.innermost_excluded counter missing");
    }

    /// The counter is silent when an outer loop legitimately out-scores
    /// the innermost: the exclusion did not change the ranking.
    #[test]
    fn innermost_exclusion_counter_is_silent_when_outer_loop_wins() {
        // Column-major arrays: A(J,I) is stride-1 in J, so the *outer*
        // loop J carries the spatial locality while the inner loop I
        // strides by a full column and carries no reuse at all.
        let nest = NestBuilder::new("outer_top")
            .array("A", &[244, 244])
            .loop_("J", 1, 240)
            .loop_("I", 1, 240)
            .stmt("A(J,I) = A(J,I) * 2.0 + 1.0")
            .build();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        SelectLoops::default()
            .run_traced(&mut ctx)
            .expect("selects");
        let trace = sink.take();
        assert!(
            !trace
                .counter_totals()
                .iter()
                .any(|(_, c, _)| c == "select.innermost_excluded"),
            "counter must not fire when the exclusion is ranking-neutral: {:?}",
            trace.records
        );
    }

    /// The headline provenance property: exactly one candidate wins, it
    /// is the candidate the search returns, and every other candidate
    /// carries a pruning or domination verdict.
    #[test]
    fn explain_records_name_the_winner_search_returns() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        let space = SelectLoops::default()
            .run_traced(&mut ctx)
            .expect("selects");
        let found = SearchSpace {
            space: space.clone(),
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");

        let trace = sink.take();
        let explains: Vec<_> = trace.explains().collect();
        assert_eq!(
            explains.len(),
            space.len(),
            "one explain record per candidate offset"
        );
        let winners: Vec<_> = explains
            .iter()
            .filter(|e| e.verdict == Verdict::Won)
            .collect();
        assert_eq!(winners.len(), 1, "exactly one candidate wins");
        assert_eq!(winners[0].u, found.unroll);
        assert_eq!(winners[0].beta_m, machine.balance());
        assert!(winners[0].beta.is_some());
        assert!(winners[0].registers.is_some());
        assert!(explains.iter().all(|e| e.pass == "search-space"));
    }

    /// Table-driven and brute-force searches agree not just on the
    /// winner but in their explain records' verdict for it.
    #[test]
    fn brute_search_explain_agrees_on_the_winner() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let space = UnrollSpace::new(2, &[0], 5);

        let table_sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &table_sink).expect("valid");
        let table = SearchSpace {
            space: space.clone(),
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");

        let brute_sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &brute_sink).expect("valid");
        let brute = BruteSearch {
            space: space.clone(),
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");

        assert_eq!(table.unroll, brute.unroll);
        let table_winner = table_sink
            .take()
            .explains()
            .find(|e| e.verdict == Verdict::Won)
            .expect("table search has a winner")
            .clone();
        let brute_winner = brute_sink
            .take()
            .explains()
            .find(|e| e.verdict == Verdict::Won)
            .expect("brute search has a winner")
            .clone();
        assert_eq!(table_winner.u, brute_winner.u);
        assert_eq!(table_winner.u, table.unroll);
    }

    /// A register budget of nearly zero prunes every profitable
    /// candidate; the explain records say so.  Even `u = 0` is over
    /// budget here, so the monotone walk probes it once (that record
    /// doubles as the fallback winner), skips the whole remaining
    /// up-set, and still leaves one record per candidate.
    #[test]
    fn register_pruning_is_visible_in_explains() {
        let nest = intro();
        let tiny = MachineModel::builder("tiny")
            .rates(1.0, 4.0)
            .registers(2)
            .cache(8 * 1024, 32, 1)
            .miss(20.0, 1.0)
            .build();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &tiny, &sink).expect("valid");
        let space = UnrollSpace::new(2, &[0], 7);
        let found = SearchSpace {
            space: space.clone(),
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");
        assert_eq!(found.unroll, vec![0, 0], "nothing fits a 2-register budget");
        let trace = sink.take();
        let explains: Vec<_> = trace.explains().collect();
        assert_eq!(
            explains.len(),
            space.len(),
            "pruned candidates still logged"
        );
        assert!(
            explains
                .iter()
                .any(|e| matches!(e.verdict, Verdict::PrunedRegisters | Verdict::PrunedUpset)),
            "some candidate must exceed a 2-register budget"
        );
        let pruned_upset = trace
            .counter_totals()
            .iter()
            .find(|(_, name, _)| name == "search.pruned_upset")
            .map(|&(_, _, v)| v)
            .expect("search emits the pruned_upset counter");
        assert_eq!(
            pruned_upset as usize,
            space.len() - 1,
            "one probe, rest skipped"
        );
    }

    /// Divisibility pruning (trip count 7 is prime) shows up as
    /// `pruned_divisibility`, never as a winner.
    #[test]
    fn divisibility_pruning_is_visible_in_explains() {
        let nest = NestBuilder::new("prime")
            .array("A", &[9])
            .array("B", &[9])
            .loop_("J", 1, 7)
            .loop_("I", 1, 7)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        let found = SearchSpace {
            space: UnrollSpace::new(2, &[0], 5),
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run_traced(&mut ctx)
        .expect("searches");
        assert_eq!(found.unroll, vec![0, 0]);
        let trace = sink.take();
        let pruned = trace
            .explains()
            .filter(|e| e.verdict == Verdict::PrunedDivisibility)
            .count();
        assert_eq!(pruned, 5, "u = 1..=5 all fail to divide 7");
        let winner = trace
            .explains()
            .find(|e| e.verdict == Verdict::Won)
            .expect("winner exists");
        assert_eq!(winner.u, vec![0, 0]);
    }

    /// With tracing disabled nothing is recorded and the outcome is
    /// identical — the provenance layer cannot perturb decisions.
    #[test]
    fn tracing_does_not_change_the_outcome() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let space = UnrollSpace::new(2, &[0], 5);
        let sink = CollectingSink::new();
        let mut traced_ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
        let mut plain_ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        let pass = SearchSpace {
            space,
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        };
        let traced = pass.run_traced(&mut traced_ctx).expect("searches");
        let plain = pass.run_traced(&mut plain_ctx).expect("searches");
        assert_eq!(traced.unroll, plain.unroll);
        assert_eq!(traced.offset, plain.offset);
        assert_eq!(traced.predicted, plain.predicted);
    }
}

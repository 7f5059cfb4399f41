//! The `compile_suite` workload and the per-pass profile of the traced
//! run.
//!
//! The untraced workload compiles the 19 Table 2 kernels at the paper's
//! default search config plus the six deep kernels with unbounded
//! register tiling, round-robin in a seeded order, through
//! `optimize_configured`.  The profile re-runs the same pipeline one
//! pass at a time on a fresh `AnalysisCtx`, interleaved with untraced
//! compiles of the same nest, so the layers plus a residue add up to the
//! untraced compile time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ujam_core::pipeline::{
    AnalysisCtx, ApplyTransform, BruteSearch, BuildTables, Pass, SearchSpace, SelectLoops,
};
use ujam_core::tables::{reg_table, rrs_tables_from};
use ujam_core::{
    gss_table, gts_table, optimize_configured, BalanceModel, CancelToken, CostModelKind,
    OptimizeError, Optimized, SearchConfig,
};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_rng::Rng;

use crate::stats::{geomean, mean, median, peak_rss_mb, us, Calibrator, Report, Windows};

/// Rounds between fresh set-ups.
const ROUNDS_PER_SETUP: usize = 8;
/// Fewest rounds a run measures, however short `--seconds` is.
const MIN_ROUNDS: usize = 8;

/// One nest to compile and the search config it is compiled under.
#[derive(Clone)]
pub struct Job {
    pub label: String,
    pub nest: LoopNest,
    pub config: SearchConfig,
    /// A Table 2 kernel: part of the `sim_speedup` geometric mean.
    pub paper: bool,
}

/// The unbounded register-tiling config the deep kernels compile under.
pub const DEEP_CONFIG: SearchConfig = SearchConfig {
    max_unroll_loops: 0,
    code_budget: None,
};

/// The 25 compile_suite jobs in the seed's order.
pub fn suite_jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = ujam_kernels::kernels()
        .iter()
        .map(|k| Job {
            label: k.name.to_string(),
            nest: k.nest(),
            config: SearchConfig::default(),
            paper: true,
        })
        .collect();
    jobs.extend(ujam_kernels::deep_kernels().iter().map(|k| Job {
        label: k.name.to_string(),
        nest: k.nest(),
        config: DEEP_CONFIG,
        paper: false,
    }));
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// The machine every workload targets: the paper's default (DEC Alpha).
pub fn machine() -> MachineModel {
    MachineModel::dec_alpha()
}

/// One untraced compile, exactly as a library caller makes it.
pub fn compile(job: &Job, machine: &MachineModel) -> Result<Optimized, OptimizeError> {
    optimize_configured(
        &job.nest,
        machine,
        BalanceModel::CacheAware,
        ujam_trace::null_sink(),
        CancelToken::never(),
        MetricsHandle::disabled(),
        job.config,
    )
}

/// Simulated cycles of the original nest over those of the nest
/// unrolled by `unroll`.
pub fn sim_speedup_of(nest: &LoopNest, unroll: &[u32], machine: &MachineModel) -> f64 {
    let chosen = ujam_ir::transform::unroll_and_jam(nest, unroll)
        .expect("a served or compiled vector transforms its nest");
    let before = ujam_sim::simulate(nest, machine).cycles;
    before / ujam_sim::simulate(&chosen, machine).cycles
}

/// The untraced compile_suite run.
///
/// The run is a sequence of rounds until `seconds` have passed, with a
/// fresh set-up before every `ROUNDS_PER_SETUP`-th round.  Every round
/// compiles every nest once, in an order drawn from the seed, and is
/// one measurement window, preceded by a slowness sample.  The metrics
/// are medians over rounds (and over set-ups for `setup_s`) at unit
/// machine speed.
pub fn run(seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let mut setup_s = Vec::new();
    let mut windows = Windows::default();
    let mut first: Vec<Option<Optimized>> = Vec::new();
    let mut unstable = 0u64;
    let mut jobs = Vec::new();
    let machine = machine();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let calibrator = Calibrator::new(None)?;
    while windows.count() < MIN_ROUNDS || Instant::now() < deadline {
        if windows.count() % ROUNDS_PER_SETUP == 0 {
            let slowness = calibrator.slowness()?;
            let t0 = Instant::now();
            jobs = suite_jobs(seed);
            let cold_machine = self::machine();
            for job in &jobs {
                let _ = black_box(compile(job, &cold_machine));
            }
            setup_s.push(t0.elapsed().as_secs_f64() / slowness);
            first.resize_with(jobs.len(), || None);
        }

        let slowness = calibrator.slowness()?;
        let mut times_us = Vec::with_capacity(jobs.len());
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let r0 = Instant::now();
        for i in order {
            let t = Instant::now();
            let out = compile(&jobs[i], &machine);
            times_us.push(us(t.elapsed()));
            report.attempted += 1;
            match (out, &first[i]) {
                (Ok(plan), None) => first[i] = Some(plan),
                (Ok(plan), Some(f)) if plan.unroll == f.unroll => {}
                _ => unstable += 1,
            }
        }
        windows.push(&times_us, r0.elapsed().as_secs_f64(), slowness);
    }
    let rss = peak_rss_mb(None);

    // Every decision must equal the materialise-and-re-analyse search
    // over the same space, an independent path.  A wrong decision
    // fails every compile of its nest.
    let per_nest = report.attempted / jobs.len() as u64;
    report.failed = unstable;
    for (job, plan) in jobs.iter().zip(&first) {
        let Some(plan) = plan else {
            report.failed += per_nest;
            continue;
        };
        let brute = AnalysisCtx::new(&job.nest, &machine).and_then(|mut ctx| {
            BruteSearch {
                space: plan.space.clone(),
                code_budget: job.config.code_budget,
            }
            .run(&mut ctx)
        });
        match brute {
            Ok(b) if b.unroll == plan.unroll => {}
            other => {
                report.failed += per_nest;
                report.note(format!(
                    "MISMATCH {}: compiled {:?}, brute search {:?}",
                    job.label,
                    plan.unroll,
                    other.map(|b| b.unroll)
                ));
            }
        }
    }

    let speedups: Vec<f64> = jobs
        .iter()
        .zip(&first)
        .filter(|(job, _)| job.paper)
        .filter_map(|(job, p)| {
            p.as_ref()
                .map(|p| sim_speedup_of(&job.nest, &p.unroll, &machine))
        })
        .collect();

    report.note(format!(
        "compile_suite: {} nests, one round a window, {}",
        jobs.len(),
        windows.summary()
    ));
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    windows.report(&mut report);
    report.metric("peak_rss_mb", rss, "MiB", 1);
    report.metric(
        "success_rate",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted as usize,
    );
    report.metric("sim_speedup", geomean(&speedups), "x", speedups.len());
    Ok(report)
}

/// Per-nest timings of one profiled compile, microseconds.
#[derive(Default, Clone)]
struct Sample {
    untraced: f64,
    stepped: f64,
    graph: f64,
    safety: f64,
    ugs: f64,
    select: f64,
    build: f64,
    search: f64,
    apply: f64,
    gts: f64,
    gss: f64,
    rrs: f64,
    reg: f64,
}

/// What the profile learned about one nest.
struct NestProfile {
    samples: Vec<Sample>,
    space_points: usize,
    body_stmts_out: usize,
    unroll: Vec<u32>,
}

/// Profiles `jobs` pass by pass for about `budget`, at least one round,
/// and adds the compile layers to `report`: means over nests of
/// per-nest medians.  With `rows`, also one diagnostic row per nest,
/// with simulated cycles for the Table 2 kernels.  Returns the tracing
/// overhead (median stepped compile minus median untraced compile,
/// pooled over every sample) and the number of samples.
pub fn profile(
    jobs: &[Job],
    machine: &MachineModel,
    budget: Duration,
    rows: bool,
    report: &mut Report,
) -> (f64, usize) {
    let mut nests: Vec<Option<NestProfile>> = jobs.iter().map(|_| None).collect();
    let t_end = Instant::now() + budget;
    let mut rounds = 0usize;
    loop {
        for (i, job) in jobs.iter().enumerate() {
            report.attempted += 1;
            // Alternate which compile of the pair runs first, so neither
            // always finds the nest's data warm.
            match profile_once(job, machine, rounds.is_multiple_of(2)) {
                Ok((sample, space_points, plan, stepped)) => {
                    let slot = nests[i].get_or_insert_with(|| NestProfile {
                        samples: Vec::new(),
                        space_points,
                        body_stmts_out: plan.nest.body().len(),
                        unroll: plan.unroll.clone(),
                    });
                    if slot.unroll != plan.unroll || stepped != plan.unroll {
                        report.failed += 1;
                    }
                    slot.samples.push(sample);
                }
                Err(_) => report.failed += 1,
            }
        }
        rounds += 1;
        if Instant::now() >= t_end {
            break;
        }
    }
    let profiled: Vec<(&Job, &NestProfile)> = jobs
        .iter()
        .zip(&nests)
        .filter_map(|(j, p)| p.as_ref().map(|p| (j, p)))
        .collect();
    let med = |p: &NestProfile, f: fn(&Sample) -> f64| {
        median(&p.samples.iter().map(f).collect::<Vec<_>>())
    };
    let layer =
        |f: fn(&Sample) -> f64| mean(&profiled.iter().map(|(_, p)| med(p, f)).collect::<Vec<_>>());
    let total = layer(|s| s.untraced);
    let graph = layer(|s| s.graph);
    let safety = layer(|s| s.safety);
    let ugs = layer(|s| s.ugs);
    let select = layer(|s| s.select);
    let build = layer(|s| s.build);
    let search = layer(|s| s.search);
    let apply = layer(|s| s.apply);
    let (gss, rrs, reg) = (layer(|s| s.gss), layer(|s| s.rrs), layer(|s| s.reg));
    let residue = total - (graph + safety + ugs + select + build + search + apply);
    let layers = vec![
        ("dep.graph_us", graph, "us"),
        ("dep.safety_us", safety, "us"),
        ("reuse.ugs_us", ugs, "us"),
        ("core.select_us", select, "us"),
        ("core.build_tables_us", build, "us"),
        ("core.tables.gts_us", layer(|s| s.gts), "us"),
        ("core.tables.gss_us", gss, "us"),
        ("core.tables.rrs_us", rrs, "us"),
        ("core.tables.reg_us", reg, "us"),
        ("core.tables.other_us", build - gss - rrs - reg, "us"),
        ("core.search_us", search, "us"),
        ("core.apply_us", apply, "us"),
        ("core.residue_us", residue, "us"),
        ("core.compile_us", total, "us"),
        (
            "core.space_points",
            profiled.iter().map(|(_, p)| p.space_points).sum::<usize>() as f64,
            "count",
        ),
        (
            "ir.body_stmts_out",
            profiled
                .iter()
                .map(|(_, p)| p.body_stmts_out)
                .sum::<usize>() as f64,
            "count",
        ),
        ("core.build_share", build / total, "ratio"),
    ];

    let samples = profiled.iter().map(|(_, p)| p.samples.len()).sum();
    for (name, value, unit) in layers {
        report.metric(name, value, unit, samples);
    }
    if !rows {
        return (overhead_us(&profiled), samples);
    }
    report.note(format!(
        "nest-row {:<11} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8} {:>6}  {:<14} {:>12} {:>12}",
        "nest",
        "total_us",
        "dep_us",
        "select",
        "build_us",
        "search",
        "apply",
        "residue",
        "points",
        "unroll",
        "cycles_orig",
        "cycles_new"
    ));
    for (job, p) in &profiled {
        let dep = med(p, |s| s.graph) + med(p, |s| s.safety) + med(p, |s| s.ugs);
        let passes = [
            med(p, |s| s.select),
            med(p, |s| s.build),
            med(p, |s| s.search),
            med(p, |s| s.apply),
        ];
        let untraced = med(p, |s| s.untraced);
        let residue = untraced - dep - passes.iter().sum::<f64>();
        let (orig, new) = if job.paper {
            let chosen = ujam_ir::transform::unroll_and_jam(&job.nest, &p.unroll)
                .expect("a compiled vector transforms its nest");
            (
                format!("{:.0}", ujam_sim::simulate(&job.nest, machine).cycles),
                format!("{:.0}", ujam_sim::simulate(&chosen, machine).cycles),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        report.note(format!(
            "nest-row {:<11} {:>9.1} {:>8.1} {:>8.1} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>6}  {:<14} {:>12} {:>12}",
            job.label,
            untraced,
            dep,
            passes[0],
            passes[1],
            passes[2],
            passes[3],
            residue,
            p.space_points,
            format!("{:?}", p.unroll),
            orig,
            new
        ));
    }

    (overhead_us(&profiled), samples)
}

/// Median stepped compile minus median untraced compile, pooled over
/// every profiled sample.
fn overhead_us(profiled: &[(&Job, &NestProfile)]) -> f64 {
    let pooled = |f: fn(&Sample) -> f64| {
        let all: Vec<f64> = profiled
            .iter()
            .flat_map(|(_, p)| p.samples.iter().map(f))
            .collect();
        median(&all)
    };
    pooled(|s| s.stepped) - pooled(|s| s.untraced)
}

/// One untraced compile and one pass-by-pass compile of the same nest
/// (the untraced one first when `untraced_first`), plus the four table
/// families timed on their own.  Returns the timings, the space size,
/// the untraced plan, and the stepped pipeline's vector.
fn profile_once(
    job: &Job,
    machine: &MachineModel,
    untraced_first: bool,
) -> Result<(Sample, usize, Optimized, Vec<u32>), OptimizeError> {
    let mut s = Sample::default();
    let untraced = |s: &mut Sample| {
        let t = Instant::now();
        let plan = compile(job, machine);
        s.untraced = us(t.elapsed());
        plan
    };
    let first = untraced_first.then(|| untraced(&mut s));

    let t_all = Instant::now();
    let mut ctx = AnalysisCtx::new(&job.nest, machine)?;
    let t = Instant::now();
    black_box(ctx.dep_graph());
    s.graph = us(t.elapsed());
    let t = Instant::now();
    black_box(ctx.safe_bounds());
    s.safety = us(t.elapsed());
    let t = Instant::now();
    black_box(ctx.ugs());
    s.ugs = us(t.elapsed());
    let t = Instant::now();
    let space = SelectLoops {
        max_loops: job.config.max_unroll_loops,
    }
    .run(&mut ctx)?;
    s.select = us(t.elapsed());
    let t = Instant::now();
    black_box(
        BuildTables {
            space: space.clone(),
        }
        .run(&mut ctx)?,
    );
    s.build = us(t.elapsed());
    let t = Instant::now();
    let found = SearchSpace {
        space: space.clone(),
        model: BalanceModel::CacheAware,
        cost: CostModelKind::Analytic,
        code_budget: job.config.code_budget,
    }
    .run(&mut ctx)?;
    s.search = us(t.elapsed());
    let t = Instant::now();
    black_box(
        ApplyTransform {
            unroll: found.unroll.clone(),
        }
        .run(&mut ctx)?,
    );
    s.apply = us(t.elapsed());
    s.stepped = us(t_all.elapsed());
    let plan = match first {
        Some(plan) => plan,
        None => untraced(&mut s),
    }?;

    let depth = job.nest.depth();
    let line = machine.line_elems();
    let sets = ctx.ugs();
    let t = Instant::now();
    for set in sets {
        black_box(gts_table(set, &space));
    }
    s.gts = us(t.elapsed());
    let t = Instant::now();
    for set in sets {
        black_box(gss_table(set, &space, line));
    }
    s.gss = us(t.elapsed());
    let t = Instant::now();
    black_box(rrs_tables_from(sets, depth, &space));
    s.rrs = us(t.elapsed());
    let t = Instant::now();
    for set in sets {
        black_box(reg_table(set, &space));
    }
    s.reg = us(t.elapsed());
    Ok((s, space.len(), plan, found.unroll))
}

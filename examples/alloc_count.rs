//! Heap allocations per compile, counted with a counting global
//! allocator that forwards to the system allocator.
//!
//! Over the 25 `compile_suite` jobs (the 19 Table 2 kernels under the
//! default search config and the 6 deep kernels under unbounded register
//! tiling, all on the DEC Alpha with the cache-aware balance model) it
//! prints the mean number of allocations (`alloc`, `alloc_zeroed` and
//! `realloc` calls) and bytes per
//!
//! * compile (`optimize_configured`),
//! * decision (`decide_costed`), and
//! * `unroll_and_jam` of the winning vector,
//!
//! and exits non-zero if any of the three allocation counts exceeds its
//! ceiling below.  It then times the same three calls over the first
//! 1,024 distinct emitted-and-parsed `corpus_routine` nests of seeds 1
//! and 3 (the `serve_mixed` corpus) and prints the residue
//! `compile − decide − unroll_and_jam`: the part of a compile that is
//! neither the decision nor the rewrite timed on its own.  Times are
//! printed, never checked.
//!
//! Run it with `cargo run --release --example alloc_count`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use ujam::core::{
    decide_costed, optimize_configured, BalanceModel, CancelToken, CostModelKind, SearchConfig,
};
use ujam::ir::{transform::unroll_and_jam, LoopNest};
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;

/// Ceilings on the mean allocations per `compile_suite` job, as counted
/// when subscripts were stored as name-keyed maps: (compile, decide,
/// `unroll_and_jam`).
const CEILING: [f64; 3] = [966.60, 555.20, 410.40];

/// Timed repetitions per corpus nest.
const REPS: usize = 3;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a, b) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    (ALLOCS.load(Relaxed) - a, BYTES.load(Relaxed) - b, out)
}

/// The three calls being measured, for one nest under one config.
struct Job {
    nest: LoopNest,
    config: SearchConfig,
}

impl Job {
    fn compile(&self, machine: &MachineModel) -> LoopNest {
        let plan = optimize_configured(
            &self.nest,
            machine,
            BalanceModel::CacheAware,
            ujam::trace::null_sink(),
            CancelToken::never(),
            MetricsHandle::disabled(),
            self.config,
        );
        plan.expect("a valid nest compiles").nest
    }

    fn decide(&self, machine: &MachineModel) -> Vec<u32> {
        let found = decide_costed(
            &self.nest,
            machine,
            BalanceModel::CacheAware,
            CostModelKind::Analytic,
            ujam::trace::null_sink(),
            CancelToken::never(),
            MetricsHandle::disabled(),
            self.config,
        );
        found.expect("a valid nest is decided").unroll
    }

    fn apply(&self, unroll: &[u32]) -> LoopNest {
        unroll_and_jam(&self.nest, unroll).expect("the winner transforms")
    }
}

fn suite_jobs() -> Vec<Job> {
    let deep = SearchConfig {
        max_unroll_loops: 0,
        code_budget: None,
    };
    let paper = ujam::kernels::kernels().into_iter().map(|k| Job {
        nest: k.nest(),
        config: SearchConfig::default(),
    });
    let deep = ujam::kernels::deep_kernels().into_iter().map(|k| Job {
        nest: k.nest(),
        config: deep,
    });
    paper.chain(deep).collect()
}

/// The first 1,024 corpus nests of `seed`, distinct by text, each parsed
/// from its emitted Fortran as the daemon sees it.
fn mixed_jobs(seed: u64) -> Vec<Job> {
    let mut seen = HashSet::new();
    (0..)
        .map(|idx| {
            let source = ujam::fortran::emit(&ujam::kernels::corpus_routine(seed, idx));
            ujam::fortran::parse(&source).expect("emitted corpus Fortran parses")
        })
        .filter(|nest| seen.insert(nest.to_string()))
        .take(1024)
        .map(|nest| Job {
            nest,
            config: SearchConfig::default(),
        })
        .collect()
}

fn main() -> ExitCode {
    let machine = MachineModel::dec_alpha();
    let jobs = suite_jobs();
    // One untimed, uncounted pass warms every lazily initialised static.
    for job in &jobs {
        black_box(job.compile(&machine));
    }
    let mut sums = [(0u64, 0u64); 3];
    for job in &jobs {
        let (a, b, nest) = counted(|| job.compile(&machine));
        drop(nest);
        sums[0] = (sums[0].0 + a, sums[0].1 + b);
        let (a, b, unroll) = counted(|| job.decide(&machine));
        sums[1] = (sums[1].0 + a, sums[1].1 + b);
        let (a, b, nest) = counted(|| job.apply(&unroll));
        drop(nest);
        sums[2] = (sums[2].0 + a, sums[2].1 + b);
    }
    let n = jobs.len() as f64;
    let mut over = Vec::new();
    println!("compile_suite, {} jobs, mean per job:", jobs.len());
    let names = ["compile", "decide", "unroll_and_jam"];
    for ((what, (allocs, bytes)), ceiling) in names.into_iter().zip(sums).zip(CEILING) {
        let mean = allocs as f64 / n;
        println!(
            "  {what:<15} {mean:>8.2} allocs {:>9.0} bytes  (ceiling {ceiling:.2})",
            bytes as f64 / n
        );
        if mean > ceiling {
            over.push(format!("{what}: {mean:.2} > {ceiling:.2}"));
        }
    }

    for seed in [1, 3] {
        let jobs = mixed_jobs(seed);
        let mut us = [0f64; 3];
        for job in &jobs {
            let unroll = job.decide(&machine);
            for _ in 0..REPS {
                let t = Instant::now();
                black_box(job.compile(&machine));
                let compiled = t.elapsed();
                let t = Instant::now();
                black_box(job.decide(&machine));
                let decided = t.elapsed();
                let t = Instant::now();
                black_box(job.apply(&unroll));
                let applied = t.elapsed();
                for (sum, d) in us.iter_mut().zip([compiled, decided, applied]) {
                    *sum += d.as_secs_f64() * 1e6;
                }
            }
        }
        let per = (jobs.len() * REPS) as f64;
        let [compile, decide, apply] = us.map(|t| t / per);
        let residue = compile - decide - apply;
        println!(
            "serve_mixed seed {seed}, {} nests x {REPS}: compile {compile:.1} us, decide {decide:.1} us, \
             unroll_and_jam {apply:.1} us, residue {residue:.1} us ({:.1}% of a compile)",
            jobs.len(),
            100.0 * residue / compile
        );
    }

    if over.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "allocation counts above their ceilings: {}",
            over.join("; ")
        );
        ExitCode::FAILURE
    }
}

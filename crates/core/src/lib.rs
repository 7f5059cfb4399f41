//! Unroll-and-jam guided by uniformly generated sets — the algorithm of
//! Carr & Guan (MICRO 1997).
//!
//! Unroll-and-jam lowers a loop's *balance* — memory operations (plus cache
//! penalties) per flop — toward the machine's balance, subject to register
//! pressure.  The expensive part is predicting, for every candidate unroll
//! vector `u`, how many memory operations, cache lines, and registers the
//! unrolled loop will need.  Previous approaches either stored read–read
//! *input dependences* (most of the dependence graph; see `ujam-dep`) or
//! materialised every candidate body and re-analysed it (Wolf, Maydan &
//! Chen).  This crate implements the paper's alternative:
//!
//! 1. partition references into uniformly generated sets (`ujam-reuse`),
//! 2. precompute small **tables indexed by copy offset** whose prefix sums
//!    give the number of group-temporal sets ([`gts_table`]), group-spatial
//!    sets ([`gss_table`]), and register-reuse streams ([`rrs_tables`])
//!    after unrolling by any `u` — Figures 2–5 of the paper,
//! 3. evaluate loop balance from those tables ([`balance`]) and search the
//!    whole unroll space for the best legal vector ([`optimize`], §4.5).
//!
//! The brute-force comparator ([`brute`]) and the analytic copy-vector
//! evaluator ([`streams`]) double as correctness oracles: property tests
//! assert `tables == analytic == full-IR-transform` on the paper's loop
//! class.
//!
//! # Architecture
//!
//! The optimizer is a pipeline of named passes over a shared, memoizing
//! [`pipeline::AnalysisCtx`]:
//!
//! ```text
//! SelectLoops ──► BuildTables ──► SearchSpace ──► ApplyTransform
//!       └──────────── all querying one AnalysisCtx ───────────┘
//!            (DepGraph, safety bounds, UGS partition,
//!             locality scores, CostTables — each built ≤ once)
//! ```
//!
//! [`optimize_costed`] runs that sequence and returns `Result` —
//! malformed nests yield a [`pipeline::OptimizeError`], never a panic.
//! It takes the cost backend, a cancel token, the search knobs, and a
//! [`ujam_trace::TraceSink`] plus metrics handle that record per-pass
//! timing spans, cache hit/miss counters, and per-candidate decision
//! provenance (why each unroll vector won, was pruned, or was
//! dominated) without changing the optimization result.  [`optimize`]
//! and the other `optimize*` functions are shortcuts for it, and
//! [`optimize_batch`] fans a slice of nests out across scoped threads,
//! one context per nest.  It decides, then applies: [`decide_costed`]
//! takes the same arguments, runs the same passes up to the search's
//! winner and returns it without the rewrite, which is all a caller
//! that needs only the decision (the serving daemon) pays for.
//!
//! # Example
//!
//! ```
//! use ujam_ir::NestBuilder;
//! use ujam_machine::MachineModel;
//! use ujam_core::optimize;
//!
//! // The paper's §3.3 example: DO J; DO I; A(J) = A(J) + B(I).
//! let nest = NestBuilder::new("intro")
//!     .array("A", &[512]).array("B", &[512])
//!     .loop_("J", 1, 512).loop_("I", 1, 512)
//!     .stmt("A(J) = A(J) + B(I)")
//!     .build();
//! let plan = optimize(&nest, &MachineModel::dec_alpha()).expect("valid nest");
//! // Unrolling J improves balance: the optimizer picks a non-trivial u.
//! assert!(plan.unroll[0] >= 1);
//! assert!(plan.predicted.balance <= 1.0);
//! ```
//!
//! Batches go through [`optimize_batch`]:
//!
//! ```
//! use ujam_ir::NestBuilder;
//! use ujam_machine::MachineModel;
//! use ujam_core::optimize_batch;
//!
//! let nests: Vec<_> = (0..3).map(|k| {
//!     NestBuilder::new(&format!("n{k}"))
//!         .array("A", &[242]).array("B", &[242])
//!         .loop_("J", 1, 240).loop_("I", 1, 240)
//!         .stmt("A(J) = A(J) + B(I)")
//!         .build()
//! }).collect();
//! let plans = optimize_batch(&nests, &MachineModel::dec_alpha());
//! assert!(plans.iter().all(|p| p.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod brute;
mod costmodel;
mod driver;
pub mod pipeline;
mod space;
pub mod streams;
pub mod tables;

pub use balance::{loop_balance, BalanceInputs};
pub use costmodel::CostModelKind;
pub use driver::{
    decide_costed, optimize, optimize_configured, optimize_costed, optimize_in_space,
    optimize_with, BalanceModel, Optimized, Prediction, SearchConfig,
};
pub use pipeline::{
    optimize_batch, optimize_batch_traced_with_workers, search_tables, AnalysisCtx, CancelToken,
    OptimizeError,
};
pub use space::{OffsetIter, Table, UnrollSpace};
pub use tables::{gss_table, gts_table, rrs_tables, CostTables, RrsTables};

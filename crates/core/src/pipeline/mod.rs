//! The staged optimizer pipeline: named passes over a shared,
//! memoizing [`AnalysisCtx`].
//!
//! The paper's whole point is to compute the reuse analyses **once per
//! nest** and amortize them across the entire unroll space.  The seed
//! driver re-derived the dependence graph, UGS partition, and cost
//! tables from scratch on every `optimize*` call; this module makes the
//! precompute-then-query design explicit:
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!              │            AnalysisCtx<'a>                 │
//!              │  nest + machine, lazily cached:            │
//!              │   · DepGraph          (built ≤ once)       │
//!              │   · safe unroll bounds (built ≤ once)      │
//!              │   · UGS partition     (built ≤ once)       │
//!              │   · locality scores   (per loop × line)    │
//!              │   · CostTables        (per loops/bounds/   │
//!              │                        line key)           │
//!              └───────▲──────▲──────────▲──────────▲───────┘
//!                      │      │          │          │
//!   SelectLoops ──► BuildTables ──► SearchSpace ──► ApplyTransform
//!     (which loops,   (GTS/GSS/RRS/     (min |β−β_M|   (unroll-and-jam
//!      what bounds)    register tables)  s.t. registers) the winner)
//! ```
//!
//! Each stage is a small struct implementing [`Pass`], so stages are
//! independently testable and swappable — [`BruteSearch`] is a drop-in
//! replacement for [`SearchSpace`] that materialises every candidate
//! body instead of querying tables (the §5.3 comparison).
//! [`crate::optimize_costed`] runs the standard sequence, and
//! [`crate::decide_costed`] the same sequence up to the winner, without
//! `ApplyTransform`;
//! [`optimize_batch`] fans a slice of nests out across
//! `std::thread::scope` workers, one context per nest.
//!
//! Failures surface as [`OptimizeError`] instead of panics: malformed
//! nests, depth-mismatched spaces, and untransformable winners all
//! return `Err` from every public entry point.
//!
//! Every stage is observable through a [`ujam_trace::TraceSink`]: a
//! traced run records per-pass wall-time spans, cache
//! hit/miss counters (`<analysis>.build` / `.hit`), and per-candidate
//! explain records that justify the chosen unroll vector.  With the
//! default [`ujam_trace::NullSink`] every emission site is guarded by a
//! single `enabled()` check, so the untraced path stays on the seed's
//! fast path.

mod batch;
mod cancel;
mod ctx;
mod pass;

pub use batch::{optimize_batch, optimize_batch_traced_with_workers};
pub use cancel::CancelToken;
pub use ctx::AnalysisCtx;
pub(crate) use pass::search_over;
pub use pass::{
    search_tables, ApplyTransform, BruteSearch, BuildTables, Pass, SearchOutcome, SearchSpace,
    SelectLoops,
};

use std::fmt;
use ujam_ir::transform::TransformError;

/// Why the optimizer could not produce a plan for a nest.
///
/// Every public `optimize*` entry point returns this instead of
/// panicking on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptimizeError {
    /// The nest failed structural validation (duplicate loop variables,
    /// undeclared arrays, rank mismatches, unbound subscript variables),
    /// or a subscript coefficient or constant exceeds `2^31` in
    /// magnitude, beyond the range the exact analysis admits.
    InvalidNest(String),
    /// The nest has no loops, so there is nothing to unroll or jam.
    EmptyNest,
    /// A caller-provided unroll space was built for a different nest
    /// depth.
    DepthMismatch {
        /// The nest's depth.
        nest: usize,
        /// The space's depth.
        space: usize,
    },
    /// The chosen transformation could not be applied to the nest.
    Transform(TransformError),
    /// The optimization was cancelled — its [`CancelToken`] fired (an
    /// explicit revocation or an elapsed deadline) before the pipeline
    /// finished.  The work already done is discarded; no partial plan is
    /// returned and nothing may be cached from the attempt.
    DeadlineExceeded,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::InvalidNest(why) => write!(f, "invalid nest: {why}"),
            OptimizeError::EmptyNest => write!(f, "nest has no loops"),
            OptimizeError::DepthMismatch { nest, space } => write!(
                f,
                "unroll space depth {space} does not match nest depth {nest}"
            ),
            OptimizeError::Transform(e) => write!(f, "transform failed: {e}"),
            OptimizeError::DeadlineExceeded => {
                write!(f, "optimization cancelled: deadline exceeded")
            }
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizeError::Transform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for OptimizeError {
    fn from(e: TransformError) -> OptimizeError {
        OptimizeError::Transform(e)
    }
}

//! The evaluation workloads of the reproduction.
//!
//! * [`kernels`] — the 19 test loops of the paper's Table 2, rebuilt in
//!   the `ujam-ir` DSL with the reference patterns of the original
//!   SPEC92 / Perfect / NAS / local codes (see [`Kernel`] for the
//!   per-kernel notes on what was preserved);
//! * [`deep_kernels`] — deep (3–5 loop) nests — tensor contractions, a
//!   3-d stencil, batched matmuls — for the register-tiling search mode
//!   that spans more than two loops;
//! * [`corpus`] — a seeded synthetic routine generator standing in for
//!   the 1187-routine Fortran corpus of §5.1 (we do not have the original
//!   sources); the pattern mix mirrors array-based scientific code:
//!   stencils, reductions, dense linear algebra, and multi-array sweeps.
//!
//! All kernels are separable SIV (§3.5) — as the paper notes, "on loops
//! where unroll-and-jam is applicable nearly all array references fit
//! these criteria" — and use trip counts divisible by every unroll factor
//! up to 8 so the clean (no clean-up loop) transformation always applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deep;
mod suite;
mod synth;

pub use deep::{deep_kernel, deep_kernels, DeepKernel};
pub use suite::{kernel, kernels, optimize_suite, Kernel, KERNEL_ALIASES};
pub use synth::{corpus, corpus_deep, corpus_routine, corpus_subroutine, corpus_subroutines};

use ujam_ir::LoopNest;

/// Resolves a kernel name to its nest the way `ujam optimize` and the
/// serve daemon do: a Table 2 kernel (or alias) first, then a deep
/// kernel.
pub fn named_nest(name: &str) -> Option<LoopNest> {
    kernel(name)
        .map(|k| k.nest())
        .or_else(|| deep_kernel(name).map(|k| k.nest()))
}

/// Every name [`named_nest`] resolves: the Table 2 kernels, the deep
/// kernels and the [`KERNEL_ALIASES`].
pub fn kernel_names() -> Vec<&'static str> {
    let suite = kernels().into_iter().map(|k| k.name);
    let deep = deep_kernels().into_iter().map(|k| k.name);
    let aliases = KERNEL_ALIASES.iter().map(|&(alias, _)| alias);
    suite.chain(deep).chain(aliases).collect()
}

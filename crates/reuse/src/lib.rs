//! The Wolf–Lam linear-algebra data-reuse model (uniformly generated sets).
//!
//! This crate implements §3.4–§3.5 of Carr & Guan: the reuse analysis that
//! replaces input dependences.  References are partitioned into *uniformly
//! generated sets* (same array, same access matrix `H`); reuse is then a
//! property of small linear systems:
//!
//! * **self-temporal**: `ker H` — iterations along these directions touch
//!   the same element;
//! * **self-spatial**: `ker H_S` (first subscript row zeroed) — iterations
//!   touch the same cache line (Fortran column-major);
//! * **group-temporal**: `H·x = c₁ − c₂` solvable within the localized
//!   space — two references touch the same elements a fixed offset apart;
//! * **group-spatial**: the same with `H_S`, up to a first-dimension
//!   residue smaller than the cache line.
//!
//! [`UgsSet::partition`] builds the sets; [`group_temporal_sets`] and
//! [`group_spatial_sets`] partition a set's members; [`ugs_cost`] evaluates
//! the paper's Equation 1 (cache lines per iteration); and [`depbased`]
//! implements the *dependence-based* baseline reuse analysis the paper
//! replaces (which is what needs the input dependences counted in Table 1).
//!
//! # Example
//!
//! ```
//! use ujam_ir::NestBuilder;
//! use ujam_reuse::{Localized, UgsSet, nest_cache_cost};
//!
//! let nest = NestBuilder::new("stencil")
//!     .array("A", &[66, 66]).array("B", &[66, 66])
//!     .loop_("J", 1, 64).loop_("I", 1, 64)
//!     .stmt("B(I,J) = A(I,J) + A(I,J+1) + A(I+1,J)")
//!     .build();
//! let sets = UgsSet::partition(&nest);
//! assert_eq!(sets.len(), 2); // one per array: all A refs share H = I
//! let l = Localized::innermost(nest.depth());
//! // Per iteration: A streams cost 2 lines/C (I,J & I,J+1 spatial; I+1,J
//! // group-spatial with I,J) and B costs 1/C.
//! let cost = nest_cache_cost(&nest, &l, 8);
//! assert!(cost > 0.0 && cost < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod depbased;
mod group;
mod locality;
pub mod permute;
mod ugs;

pub use cost::{leader_lines, nest_cache_cost, ugs_cost};
pub use group::{centered_mod, group_spatial_sets, group_temporal_sets};
pub use locality::{has_self_spatial, has_self_temporal, Localized};
pub use ugs::{UgsMember, UgsSet};

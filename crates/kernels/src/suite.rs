//! The 19 test loops of Table 2.

use ujam_ir::{LoopNest, NestBuilder};

/// One test loop of the paper's Table 2.
///
/// The `description` column mirrors the paper; `notes` records how the
/// kernel was reconstructed (the original Fortran sources are not part of
/// this repository, so each loop is rebuilt from the published subroutine
/// with its reference pattern — array ranks, subscript offsets, def/use
/// mix, loop order — preserved, and any simplification stated).
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    /// Table 2 loop number.
    pub num: usize,
    /// Table 2 loop name.
    pub name: &'static str,
    /// Suite/benchmark/subroutine or short description (Table 2 column).
    pub description: &'static str,
    /// Reconstruction notes.
    pub notes: &'static str,
    /// `true` for 3-deep kernels (sized `n³` instead of `n²`).
    pub three_deep: bool,
    build: fn(i64) -> LoopNest,
}

impl Kernel {
    /// Builds the loop nest at its default evaluation size (`N2`/`N3`).
    pub fn nest(&self) -> LoopNest {
        (self.build)(if self.three_deep { N3 } else { N2 })
    }

    /// Builds the loop nest with `n` iterations per loop — the scaling
    /// experiments sweep this across the cache-capacity crossover.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 24 (so every unroll
    /// factor up to 8, except 5 and 7, divides the trip count).
    pub fn nest_sized(&self, n: i64) -> LoopNest {
        assert!(n > 0 && n % 24 == 0, "kernel sizes must be multiples of 24");
        (self.build)(n)
    }
}

/// Problem sizes: 2-deep nests use `N2 × N2`, 3-deep use `N3³`.  Both are
/// divisible by 1..=8 (except 7) so every unroll factor in the search
/// space transforms cleanly, and both exceed the modelled caches.
const N2: i64 = 240;
const N3: i64 = 48;

fn jacobi(n: i64) -> LoopNest {
    NestBuilder::new("jacobi")
        .array("A", &[n + 4, n + 4])
        .array("B", &[n + 4, n + 4])
        .loop_("J", 2, n + 1)
        .loop_("I", 2, n + 1)
        .stmt("B(I,J) = 0.25 * (A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1))")
        .build()
}

fn afold(n: i64) -> LoopNest {
    // Adjoint convolution: every output accumulates a product stream.
    // Liberty: the original subscript `C(J-I)` is MIV; the separable form
    // keeps the loop balance profile (two streaming loads feeding one
    // invariant accumulator).
    NestBuilder::new("afold")
        .array("A", &[n + 4])
        .array("X", &[n + 4])
        .array("C", &[n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("A(J) = A(J) + X(I) * C(I)")
        .build()
}

fn btrix1(n: i64) -> LoopNest {
    // SPEC/NASA7/BTRIX loop 1: block-tridiagonal forward elimination
    // along J with an I-invariant pivot row.
    NestBuilder::new("btrix.1")
        .array("S", &[n + 4, n + 4, n + 4])
        .array("B", &[n + 4, n + 4])
        .loop_("K", 1, n)
        .loop_("J", 2, n + 1)
        .loop_("I", 1, n)
        .stmt("S(I,J,K) = S(I,J,K) - B(I,J) * S(I,J-1,K)")
        .build()
}

fn btrix2(n: i64) -> LoopNest {
    // BTRIX loop 2: scaling plus rank-one correction.
    NestBuilder::new("btrix.2")
        .array("C", &[n + 4, n + 4, n + 4])
        .array("D", &[n + 4])
        .array("E", &[n + 4, n + 4])
        .loop_("K", 1, n)
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("C(I,J,K) = C(I,J,K) * D(J) + E(I,K)")
        .build()
}

fn btrix7(n: i64) -> LoopNest {
    // BTRIX loop 7: back-substitution sweep against the factored diagonal
    // (kept as its own array SD so the reference stays separable SIV).
    NestBuilder::new("btrix.7")
        .array("S", &[n + 4, n + 4, n + 4])
        .array("U", &[n + 4, n + 4])
        .array("SD", &[n + 4, n + 4])
        .loop_("K", 1, n)
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("S(I,J,K) = S(I,J,K) - U(I,J) * SD(J,K)")
        .build()
}

fn collc2(n: i64) -> LoopNest {
    // Perfect/FLO52/COLLC loop 2: coarse-grid collection.
    NestBuilder::new("collc.2")
        .array("W", &[n + 4, n + 4])
        .array("FS", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("W(I,J) = W(I,J) - FS(I,J) + FS(I+1,J)")
        .build()
}

fn cond7(n: i64) -> LoopNest {
    // local/simple/CONDUCT loop 7: heat-conduction flux.
    NestBuilder::new("cond.7")
        .array("H", &[n + 4, n + 4])
        .array("C1", &[n + 4, n + 4])
        .array("T", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("H(I,J) = H(I,J) + C1(I,J) * (T(I+1,J) - T(I,J))")
        .build()
}

fn cond9(n: i64) -> LoopNest {
    // CONDUCT loop 9: the transverse-direction companion of cond.7.
    NestBuilder::new("cond.9")
        .array("H", &[n + 4, n + 4])
        .array("C2", &[n + 4, n + 4])
        .array("T", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("H(I,J) = H(I,J) + C2(I,J) * (T(I,J+1) - T(I,J))")
        .build()
}

fn dflux16(n: i64) -> LoopNest {
    // Perfect/FLO52/DFLUX loop 16: dissipation flux along I.
    NestBuilder::new("dflux.16")
        .array("FS", &[n + 4, n + 4])
        .array("DIS", &[n + 4, n + 4])
        .array("W", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("FS(I,J) = DIS(I,J) * (W(I+1,J) - W(I,J))")
        .build()
}

fn dflux17(n: i64) -> LoopNest {
    // DFLUX loop 17: flux difference back into the state.
    NestBuilder::new("dflux.17")
        .array("DW", &[n + 4, n + 4])
        .array("FS", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 2, n + 1)
        .stmt("DW(I,J) = DW(I,J) + FS(I,J) - FS(I-1,J)")
        .build()
}

fn dflux20(n: i64) -> LoopNest {
    // DFLUX loop 20: the J-direction dissipation pass.
    NestBuilder::new("dflux.20")
        .array("FS", &[n + 4, n + 4])
        .array("DIS", &[n + 4, n + 4])
        .array("W", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("FS(I,J) = DIS(I,J) * (W(I,J+1) - W(I,J))")
        .build()
}

fn dmxpy0(n: i64) -> LoopNest {
    // LINPACK dmxpy, column sweep: y += M·x with the column loop outer.
    NestBuilder::new("dmxpy0")
        .array("Y", &[n + 4])
        .array("X", &[n + 4])
        .array("M", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
        .build()
}

fn dmxpy1(n: i64) -> LoopNest {
    // dmxpy with the loops interchanged: the dot-product orientation.
    NestBuilder::new("dmxpy1")
        .array("Y", &[n + 4])
        .array("X", &[n + 4])
        .array("M", &[n + 4, n + 4])
        .loop_("I", 1, n)
        .loop_("J", 1, n)
        .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
        .build()
}

fn gmtry3(n: i64) -> LoopNest {
    // SPEC/NASA7/GMTRY loop 3: Gaussian-elimination update.
    NestBuilder::new("gmtry.3")
        .array("R", &[n + 4, n + 4])
        .array("P", &[n + 4, n + 4])
        .array("Q", &[n + 4, n + 4])
        .loop_("K", 1, n)
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt("R(I,J) = R(I,J) - P(I,K) * Q(K,J)")
        .build()
}

fn mmjik(n: i64) -> LoopNest {
    // Matrix multiply, JIK order: the K reduction innermost.
    NestBuilder::new("mmjik")
        .array("A", &[n + 4, n + 4])
        .array("B", &[n + 4, n + 4])
        .array("C", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .loop_("K", 1, n)
        .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
        .build()
}

fn mmjki(n: i64) -> LoopNest {
    // Matrix multiply, JKI order: the stride-1 I loop innermost.
    NestBuilder::new("mmjki")
        .array("A", &[n + 4, n + 4])
        .array("B", &[n + 4, n + 4])
        .array("C", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("K", 1, n)
        .loop_("I", 1, n)
        .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
        .build()
}

fn vpenta7(n: i64) -> LoopNest {
    // SPEC/NASA7/VPENTA loop 7: pentadiagonal back-substitution; the J
    // recurrence is loop-carried but forward, so jamming J is legal.
    NestBuilder::new("vpenta.7")
        .array("X", &[n + 4, n + 4])
        .array("F", &[n + 4, n + 4])
        .array("B", &[n + 4, n + 4])
        .array("C", &[n + 4, n + 4])
        .loop_("J", 3, n + 2)
        .loop_("I", 1, n)
        .stmt("X(I,J) = F(I,J) - B(I,J) * X(I,J-1) - C(I,J) * X(I,J-2)")
        .build()
}

fn sor(n: i64) -> LoopNest {
    // Successive over-relaxation: in-place 5-point update.
    NestBuilder::new("sor")
        .array("A", &[n + 4, n + 4])
        .loop_("J", 2, n + 1)
        .loop_("I", 2, n + 1)
        .stmt("A(I,J) = 0.2 * (A(I,J) + A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1))")
        .build()
}

fn shal(n: i64) -> LoopNest {
    // Shallow-water kernel (SWM): multi-array stencil with invariant
    // weights.
    NestBuilder::new("shal")
        .array("UNEW", &[n + 4, n + 4])
        .array("UOLD", &[n + 4, n + 4])
        .array("Z", &[n + 4, n + 4])
        .array("CV", &[n + 4, n + 4])
        .array("H", &[n + 4, n + 4])
        .loop_("J", 1, n)
        .loop_("I", 1, n)
        .stmt(
            "UNEW(I,J) = UOLD(I,J) + tdts8 * (Z(I+1,J+1) + Z(I+1,J)) * \
             (CV(I+1,J+1) + CV(I,J+1) + CV(I,J) + CV(I+1,J)) - \
             tdtsdx * (H(I+1,J) - H(I,J))",
        )
        .build()
}

/// The Table 2 roster, in the paper's order.
pub fn kernels() -> Vec<Kernel> {
    macro_rules! k {
        ($num:expr, $name:expr, $desc:expr, $notes:expr, $f:ident) => {
            k!($num, $name, $desc, $notes, $f, false)
        };
        ($num:expr, $name:expr, $desc:expr, $notes:expr, $f:ident, $deep:expr) => {
            Kernel {
                num: $num,
                name: $name,
                description: $desc,
                notes: $notes,
                three_deep: $deep,
                build: $f,
            }
        };
    }
    vec![
        k!(
            1,
            "jacobi",
            "Compute Jacobian of a Matrix",
            "5-point relaxation stencil, out-of-place",
            jacobi
        ),
        k!(
            2,
            "afold",
            "Adjoint Convolution",
            "separable form of the accumulate-products pattern (original C(J-I) is MIV)",
            afold
        ),
        k!(
            3,
            "btrix.1",
            "SPEC/NASA7/BTRIX",
            "forward elimination along J in a 3-D block solve",
            btrix1,
            true
        ),
        k!(
            4,
            "btrix.2",
            "SPEC/NASA7/BTRIX",
            "scale-and-correct sweep over the 3-D block",
            btrix2,
            true
        ),
        k!(
            5,
            "btrix.7",
            "SPEC/NASA7/BTRIX",
            "back-substitution sweep with an invariant pivot column",
            btrix7,
            true
        ),
        k!(
            6,
            "collc.2",
            "Perfect/FLO52/COLLC",
            "residual collection: forward difference of FS",
            collc2
        ),
        k!(
            7,
            "cond.7",
            "local/simple/CONDUCT",
            "I-direction conduction flux",
            cond7
        ),
        k!(
            8,
            "cond.9",
            "local/simple/CONDUCT",
            "J-direction conduction flux",
            cond9
        ),
        k!(
            9,
            "dflux.16",
            "Perfect/FLO52/DFLUX",
            "I-direction dissipation flux",
            dflux16
        ),
        k!(
            10,
            "dflux.17",
            "Perfect/FLO52/DFLUX",
            "flux difference accumulated into DW",
            dflux17
        ),
        k!(
            11,
            "dflux.20",
            "Perfect/FLO52/DFLUX",
            "J-direction dissipation flux",
            dflux20
        ),
        k!(
            12,
            "dmxpy0",
            "Vector-Matrix Multiply",
            "LINPACK dmxpy, column loop outer",
            dmxpy0
        ),
        k!(
            13,
            "dmxpy1",
            "Vector-Matrix Multiply",
            "dmxpy interchanged: dot-product orientation",
            dmxpy1
        ),
        k!(
            14,
            "gmtry.3",
            "SPEC/NASA7/GMTRY",
            "Gaussian-elimination rank-1 update",
            gmtry3,
            true
        ),
        k!(
            15,
            "mmjik",
            "Matrix-Matrix Multiply",
            "JIK loop order (reduction innermost)",
            mmjik,
            true
        ),
        k!(
            16,
            "mmjki",
            "Matrix-Matrix Multiply",
            "JKI loop order (stride-1 innermost)",
            mmjki,
            true
        ),
        k!(
            17,
            "vpenta.7",
            "SPEC/NASA7/VPENTA",
            "pentadiagonal back-substitution",
            vpenta7
        ),
        k!(
            18,
            "sor",
            "Successive Over Relaxation",
            "in-place 5-point relaxation",
            sor
        ),
        k!(
            19,
            "shal",
            "Shallow Water Kernel",
            "multi-array momentum update with scalar weights",
            shal
        ),
    ]
}

/// Other names [`kernel`] accepts, each with the Table 2 kernel it
/// stands for.  `matmul` is `mmjki` (the column-major matrix-multiply
/// ordering), since that is what most callers mean by "the matmul
/// kernel".
pub const KERNEL_ALIASES: &[(&str, &str)] = &[("matmul", "mmjki")];

/// Looks a kernel up by name or by one of its [`KERNEL_ALIASES`].
pub fn kernel(name: &str) -> Option<Kernel> {
    let name = KERNEL_ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map_or(name, |&(_, k)| k);
    kernels().into_iter().find(|k| k.name == name)
}

/// Optimizes the whole Table 2 suite through `ujam-core`'s parallel
/// batch driver: one `(kernel, plan)` pair per roster entry, in order.
///
/// Each nest gets its own analysis context, so results are identical to
/// calling `optimize` per kernel — the batch only changes scheduling.
pub fn optimize_suite(
    machine: &ujam_machine::MachineModel,
) -> Vec<(
    Kernel,
    Result<ujam_core::Optimized, ujam_core::OptimizeError>,
)> {
    let ks = kernels();
    let nests: Vec<_> = ks.iter().map(|k| k.nest()).collect();
    ks.into_iter()
        .zip(ujam_core::optimize_batch(&nests, machine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nineteen_build_and_validate() {
        let ks = kernels();
        assert_eq!(ks.len(), 19);
        for k in &ks {
            let nest = k.nest();
            nest.validate().expect(k.name);
            assert!(nest.depth() >= 2, "{} must be jammable", k.name);
            assert!(nest.flops_per_iter() >= 1, "{}", k.name);
        }
    }

    #[test]
    fn numbers_match_table_2_order() {
        for (i, k) in kernels().iter().enumerate() {
            assert_eq!(k.num, i + 1);
        }
    }

    #[test]
    fn all_kernels_are_separable_siv() {
        for k in kernels() {
            assert!(
                k.nest().is_siv_separable(),
                "{} violates the §3.5 restriction",
                k.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(kernel("mmjki").unwrap().num, 16);
        assert!(kernel("nope").is_none());
    }

    #[test]
    fn optimize_suite_covers_the_roster() {
        let plans = optimize_suite(&ujam_machine::MachineModel::dec_alpha());
        assert_eq!(plans.len(), 19);
        for (k, plan) in &plans {
            let plan = plan.as_ref().expect(k.name);
            assert_eq!(plan.unroll.len(), k.nest().depth(), "{}", k.name);
        }
    }

    #[test]
    fn trip_counts_divide_all_factors_up_to_six() {
        for k in kernels() {
            let nest = k.nest();
            for l in &nest.loops()[..nest.depth() - 1] {
                for copies in [2i64, 3, 4, 6, 8] {
                    assert_eq!(
                        l.trip_count() % copies,
                        0,
                        "{}: loop {} trip {} not divisible by {}",
                        k.name,
                        l.var(),
                        l.trip_count(),
                        copies
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod sized_tests {
    use super::*;

    #[test]
    fn sized_kernels_scale_iteration_spaces() {
        for k in kernels() {
            let small = k.nest_sized(24);
            let big = k.nest_sized(48);
            let ratio = big.iterations() / small.iterations();
            let expect = if k.three_deep { 8 } else { 4 };
            assert_eq!(ratio, expect, "{}", k.name);
            small.validate().expect(k.name);
            big.validate().expect(k.name);
        }
    }

    #[test]
    #[should_panic(expected = "multiples of 24")]
    fn bad_sizes_are_rejected() {
        let _ = kernels()[0].nest_sized(25);
    }
}

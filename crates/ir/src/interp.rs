//! A reference interpreter for loop nests.
//!
//! The interpreter exists to *verify transformations*: unroll-and-jam must
//! preserve program semantics, and the test suites execute original and
//! transformed nests on deterministic initial data and compare final memory.
//! Storage is a sparse map keyed by `(array, subscript)`, with a
//! deterministic pseudo-random initial value per cell, so kernels may read
//! slightly outside their declared extents (ghost cells) without special
//! set-up.

use crate::expr::{BinOp, Expr};
use crate::nest::{Lhs, LoopNest};
use std::collections::BTreeMap;

/// Whether a tapped memory access reads or writes the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// The cell was loaded (an `Expr::Ref` on a right-hand side).
    Read,
    /// The cell was stored (an `Lhs::Array` assignment).
    Write,
}

/// An observer of the interpreter's array traffic: one call per array
/// access, in program order, carrying the array name, the column-major
/// flattened element index ([`crate::ArrayDecl::linearize`] — possibly
/// outside the declared extent for ghost cells), and the access kind.
///
/// The tap sees *semantic* accesses — every reference the program text
/// performs, before any register allocation a backend might do — which
/// is exactly the stream a reuse-distance profiler wants.  Scalars are
/// not memory here (they model registers) and are never reported.
pub trait AccessTap {
    /// Called once per array access.
    fn access(&mut self, array: &str, flat: i64, kind: AccessKind);
}

/// The no-op tap behind plain [`execute`].  Its empty inlined methods
/// monomorphize away entirely, so the untapped interpreter pays nothing
/// for the instrumentation points.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTap;

impl AccessTap for NullTap {
    #[inline(always)]
    fn access(&mut self, _array: &str, _flat: i64, _kind: AccessKind) {}
}

/// An [`AccessTap`] that forwards every event to a closure — the glue a
/// profiler outside this crate uses to stream events into its own
/// accounting without implementing the trait on its public types.
pub struct FnTap<F: FnMut(&str, i64, AccessKind)>(pub F);

impl<F: FnMut(&str, i64, AccessKind)> AccessTap for FnTap<F> {
    #[inline]
    fn access(&mut self, array: &str, flat: i64, kind: AccessKind) {
        (self.0)(array, flat, kind)
    }
}

/// Final machine state after executing a nest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecState {
    /// Array cells that were written, keyed by `(array, subscript values)`.
    pub cells: BTreeMap<(String, Vec<i64>), f64>,
    /// Final scalar values.
    pub scalars: BTreeMap<String, f64>,
}

/// Deterministic initial value of an array cell (never exactly zero, so
/// multiplicative kernels stay informative).
fn initial_value(array: &str, subscript: &[i64]) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in array.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    for &s in subscript {
        h = (h ^ s as u64).wrapping_mul(0x1000_0000_01b3);
    }
    ((h % 1000) as f64 + 1.0) / 61.0
}

/// Executes the nest and returns the written cells and scalar values.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, interp::execute};
/// let nest = NestBuilder::new("fill")
///     .array("A", &[4])
///     .loop_("I", 1, 4)
///     .stmt("A(I) = 2.0")
///     .build();
/// let out = execute(&nest);
/// assert_eq!(out.cells[&("A".to_string(), vec![3])], 2.0);
/// ```
pub fn execute(nest: &LoopNest) -> ExecState {
    execute_with_tap(nest, &mut NullTap)
}

/// [`execute`], but streaming every array access to `tap` in program
/// order.  Accesses to arrays without a matching declaration (or whose
/// subscript rank disagrees with the declaration) still execute but are
/// not reported — they have no well-defined flattened address.
pub fn execute_with_tap<T: AccessTap + ?Sized>(nest: &LoopNest, tap: &mut T) -> ExecState {
    let mut state = ExecState::default();
    let mut iter = vec![0; nest.depth()];
    run_level(nest, 0, &mut iter, &mut state, tap);
    state
}

/// Flattened address of `array(sub)`, or `None` when the declaration is
/// missing or of a different rank.
fn flat_addr(nest: &LoopNest, array: &str, sub: &[i64]) -> Option<i64> {
    let decl = nest.array(array)?;
    if decl.dims().len() != sub.len() {
        return None;
    }
    Some(decl.linearize(sub))
}

/// Runs loop `level` and everything inside it; `iter` holds the
/// iteration vector, one index per loop, outermost first.
fn run_level<T: AccessTap + ?Sized>(
    nest: &LoopNest,
    level: usize,
    iter: &mut [i64],
    state: &mut ExecState,
    tap: &mut T,
) {
    if level == nest.depth() {
        exec_stmts(nest, nest.body(), iter, state, tap);
        return;
    }
    let l = &nest.loops()[level];
    // The prologue/epilogue bracket each *instance* of the innermost
    // loop: they run outside its iterations, so the transformation that
    // emitted them pinned the innermost index (its column of `H` is zero).
    let innermost = level + 1 == nest.depth();
    if innermost {
        exec_stmts(nest, nest.prologue(), iter, state, tap);
    }
    for v in l.values() {
        iter[level] = v;
        run_level(nest, level + 1, iter, state, tap);
    }
    if innermost {
        exec_stmts(nest, nest.epilogue(), iter, state, tap);
    }
}

fn exec_stmts<T: AccessTap + ?Sized>(
    nest: &LoopNest,
    stmts: &[crate::nest::Stmt],
    iter: &[i64],
    state: &mut ExecState,
    tap: &mut T,
) {
    for stmt in stmts {
        let value = eval(nest, stmt.rhs(), iter, state, tap);
        match stmt.lhs() {
            Lhs::Array(a) => {
                let sub = a.eval(iter);
                if let Some(flat) = flat_addr(nest, a.array(), &sub) {
                    tap.access(a.array(), flat, AccessKind::Write);
                }
                state.cells.insert((a.array().to_string(), sub), value);
            }
            Lhs::Scalar(s) => {
                state.scalars.insert(s.clone(), value);
            }
        }
    }
}

fn eval<T: AccessTap + ?Sized>(
    nest: &LoopNest,
    e: &Expr,
    iter: &[i64],
    state: &ExecState,
    tap: &mut T,
) -> f64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Scalar(s) => state.scalars.get(s).copied().unwrap_or(0.0),
        Expr::Ref(r) => {
            let sub = r.eval(iter);
            if let Some(flat) = flat_addr(nest, r.array(), &sub) {
                tap.access(r.array(), flat, AccessKind::Read);
            }
            let key = (r.array().to_string(), sub);
            state
                .cells
                .get(&key)
                .copied()
                .unwrap_or_else(|| initial_value(&key.0, &key.1))
        }
        Expr::Bin(op, l, rhs) => {
            let (a, b) = (
                eval(nest, l, iter, state, tap),
                eval(nest, rhs, iter, state, tap),
            );
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
            }
        }
        Expr::Neg(inner) => -eval(nest, inner, iter, state, tap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestBuilder;

    #[test]
    fn reduction_accumulates() {
        // A(J) = A(J) + B(I) over I=1..3 accumulates three B values.
        let nest = NestBuilder::new("red")
            .array("A", &[2])
            .array("B", &[4])
            .loop_("J", 1, 1)
            .loop_("I", 1, 3)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let out = execute(&nest);
        let expect = initial_value("A", &[1])
            + initial_value("B", &[1])
            + initial_value("B", &[2])
            + initial_value("B", &[3]);
        let got = out.cells[&("A".to_string(), vec![1])];
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn scalar_accumulator() {
        let nest = NestBuilder::new("dot")
            .array("X", &[4])
            .loop_("I", 1, 4)
            .stmt("s = s + X(I) * X(I)")
            .build();
        let out = execute(&nest);
        let expect: f64 = (1..=4).map(|i| initial_value("X", &[i]).powi(2)).sum();
        assert!((out.scalars["s"] - expect).abs() < 1e-9);
    }

    #[test]
    fn stencil_reads_initial_neighbours() {
        let nest = NestBuilder::new("shift")
            .array("A", &[8])
            .loop_("I", 1, 4)
            .stmt("A(I) = A(I+1)")
            .build();
        let out = execute(&nest);
        // A(1) gets the original A(2) (the write to A(1) happens before
        // A(2) is ever written... it never is: writes cover A(1..4) but
        // reads are of A(2..5); A(2) is read at I=1 before being written at
        // I=2).
        assert_eq!(
            out.cells[&("A".to_string(), vec![1])],
            initial_value("A", &[2])
        );
        // A(4) reads A(5) which is never written.
        assert_eq!(
            out.cells[&("A".to_string(), vec![4])],
            initial_value("A", &[5])
        );
    }

    #[test]
    fn tap_sees_reads_then_write_in_program_order() {
        // B(I) is read (twice) before A(I) is written, per statement.
        let nest = NestBuilder::new("tap")
            .array("A", &[4])
            .array("B", &[4])
            .loop_("I", 1, 2)
            .stmt("A(I) = B(I) + B(I+1)")
            .build();
        let mut events = Vec::new();
        let mut tap = FnTap(|array: &str, flat: i64, kind: AccessKind| {
            events.push((array.to_string(), flat, kind));
        });
        let tapped = execute_with_tap(&nest, &mut tap);
        assert_eq!(
            events,
            vec![
                ("B".to_string(), 0, AccessKind::Read),
                ("B".to_string(), 1, AccessKind::Read),
                ("A".to_string(), 0, AccessKind::Write),
                ("B".to_string(), 1, AccessKind::Read),
                ("B".to_string(), 2, AccessKind::Read),
                ("A".to_string(), 1, AccessKind::Write),
            ]
        );
        // Tapping must not perturb semantics.
        assert_eq!(tapped, execute(&nest));
    }

    #[test]
    fn flat_addr_guards_unknown_and_mismatched_refs() {
        let nest = NestBuilder::new("guard")
            .array("A", &[10, 5])
            .loop_("I", 1, 2)
            .stmt("A(I, I) = 1.0")
            .build();
        assert_eq!(flat_addr(&nest, "A", &[2, 1]), Some(1));
        assert_eq!(flat_addr(&nest, "A", &[2]), None); // rank mismatch
        assert_eq!(flat_addr(&nest, "U", &[2]), None); // undeclared
    }

    #[test]
    fn initial_values_are_deterministic_and_distinct() {
        assert_eq!(initial_value("A", &[1, 2]), initial_value("A", &[1, 2]));
        assert_ne!(initial_value("A", &[1, 2]), initial_value("A", &[2, 1]));
        assert_ne!(initial_value("A", &[1]), initial_value("B", &[1]));
    }
}

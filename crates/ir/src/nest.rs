//! The loop-nest IR proper: arrays, statements, loops.

use crate::expr::Expr;
use crate::subscript::ArrayRef;
use std::collections::{HashMap, HashSet};

/// A declared array with its extents (Fortran column-major order: the first
/// dimension is contiguous in memory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    name: String,
    dims: Vec<i64>,
}

impl ArrayDecl {
    /// Creates a declaration.
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive.
    pub fn new(name: &str, dims: &[i64]) -> ArrayDecl {
        assert!(
            dims.iter().all(|&d| d > 0),
            "array {name} has a non-positive extent"
        );
        ArrayDecl {
            name: name.to_string(),
            dims: dims.to_vec(),
        }
    }

    /// The array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The extents, first (contiguous) dimension first.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> i64 {
        self.dims.iter().product()
    }

    /// `true` only for a degenerate zero-dimensional declaration.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Column-major linear offset of an element given its (1-based, as in
    /// Fortran) subscript values.
    ///
    /// # Panics
    ///
    /// Panics if the subscript rank differs from the declaration.
    pub fn linearize(&self, subscript: &[i64]) -> i64 {
        assert_eq!(subscript.len(), self.dims.len(), "rank mismatch");
        let mut addr = 0;
        let mut stride = 1;
        for (s, d) in subscript.iter().zip(&self.dims) {
            addr += (s - 1) * stride;
            stride *= d;
        }
        addr
    }
}

/// The assignment target of a statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Lhs {
    /// Store to an array element.
    Array(ArrayRef),
    /// Assignment to a scalar (register-resident accumulator).
    Scalar(String),
}

/// A single assignment statement `lhs = rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    lhs: Lhs,
    rhs: Expr,
}

impl Stmt {
    /// Creates an array-assignment statement.
    pub fn assign(lhs: ArrayRef, rhs: Expr) -> Stmt {
        Stmt {
            lhs: Lhs::Array(lhs),
            rhs,
        }
    }

    /// Creates a scalar-assignment statement (e.g. a reduction accumulator).
    pub fn assign_scalar(name: &str, rhs: Expr) -> Stmt {
        Stmt {
            lhs: Lhs::Scalar(name.to_string()),
            rhs,
        }
    }

    /// The assignment target.
    pub fn lhs(&self) -> &Lhs {
        &self.lhs
    }

    /// The right-hand-side expression.
    pub fn rhs(&self) -> &Expr {
        &self.rhs
    }

    /// Mutable right-hand side (used by transformations).
    pub fn rhs_mut(&mut self) -> &mut Expr {
        &mut self.rhs
    }

    /// A copy with every array reference `r` replaced by `f(r)`, in
    /// evaluation order (used by transformations).
    pub(crate) fn map_refs(&self, mut f: impl FnMut(&ArrayRef) -> ArrayRef) -> Stmt {
        let rhs = self.rhs.map_refs(&mut f);
        let lhs = match &self.lhs {
            Lhs::Array(a) => Lhs::Array(f(a)),
            Lhs::Scalar(s) => Lhs::Scalar(s.clone()),
        };
        Stmt { lhs, rhs }
    }

    /// Array references in evaluation order: RHS uses left-to-right, then
    /// the LHS def (Fortran stores after evaluating the right-hand side).
    pub fn refs(&self) -> Vec<(&ArrayRef, bool)> {
        let mut out = Vec::new();
        self.visit_refs(&mut |r, is_def| out.push((r, is_def)));
        out
    }

    /// Visits [`Stmt::refs`] in order without collecting them.
    fn visit_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef, bool)) {
        self.rhs.visit_refs(&mut |r| f(r, false));
        if let Lhs::Array(a) = &self.lhs {
            f(a, true);
        }
    }

    /// Floating-point operations executed by the statement.
    pub fn flops(&self) -> usize {
        self.rhs.flops()
    }
}

/// A `DO`-loop header: `DO var = lower, upper, step`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Loop {
    var: String,
    lower: i64,
    upper: i64,
    step: i64,
}

impl Loop {
    /// Creates a unit-step loop over `[lower, upper]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `upper < lower`.
    pub fn new(var: &str, lower: i64, upper: i64) -> Loop {
        assert!(upper >= lower, "empty loop {var}");
        Loop {
            var: var.to_string(),
            lower,
            upper,
            step: 1,
        }
    }

    /// The induction-variable name.
    pub fn var(&self) -> &str {
        &self.var
    }

    /// Inclusive lower bound.
    pub fn lower(&self) -> i64 {
        self.lower
    }

    /// Inclusive upper bound.
    pub fn upper(&self) -> i64 {
        self.upper
    }

    /// Step (1 unless the loop has been unrolled).
    pub fn step(&self) -> i64 {
        self.step
    }

    /// Sets the step (used by unroll-and-jam).
    pub(crate) fn set_step(&mut self, step: i64) {
        assert!(step >= 1, "non-positive loop step");
        self.step = step;
    }

    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> i64 {
        (self.upper - self.lower) / self.step + 1
    }

    /// The concrete index values the loop takes, in order.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.trip_count()).map(move |k| self.lower + k * self.step)
    }
}

/// Identifies one array reference inside a [`LoopNest`] body.
///
/// `stmt` is the statement index; `pos` is the reference's position in the
/// statement's evaluation order ([`Stmt::refs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefId {
    /// Statement index within the body.
    pub stmt: usize,
    /// Position within the statement's evaluation order.
    pub pos: usize,
}

/// A reference together with its identity and def/use role.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefInfo<'a> {
    /// Where the reference lives.
    pub id: RefId,
    /// The reference itself.
    pub aref: &'a ArrayRef,
    /// `true` for a store (LHS), `false` for a load.
    pub is_def: bool,
}

/// A perfect affine loop nest: the program unit unroll-and-jam operates on.
///
/// Loops are ordered outermost first; the body is a straight-line sequence
/// of assignments executed in the innermost loop.  A transformation may
/// additionally attach a *prologue* and *epilogue*: statements executed
/// once per innermost-loop instance, immediately before its first and
/// after its last iteration (scalar replacement uses them to prime and
/// drain register temporaries).  Analyses deliberately ignore both — the
/// steady-state body is what the balance and register models measure.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNest {
    name: String,
    arrays: Vec<ArrayDecl>,
    loops: Vec<Loop>,
    body: Vec<Stmt>,
    prologue: Vec<Stmt>,
    epilogue: Vec<Stmt>,
}

impl LoopNest {
    /// Assembles a nest; prefer [`crate::NestBuilder`], which validates.
    pub fn new(name: &str, arrays: Vec<ArrayDecl>, loops: Vec<Loop>, body: Vec<Stmt>) -> LoopNest {
        LoopNest {
            name: name.to_string(),
            arrays,
            loops,
            body,
            prologue: Vec::new(),
            epilogue: Vec::new(),
        }
    }

    /// The nest's (diagnostic) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Looks up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name() == name)
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The body statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Mutable body (used by transformations).
    pub fn body_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.body
    }

    /// Statements executed once per innermost-loop instance, before its
    /// first iteration (e.g. scalar-replacement priming loads).
    pub fn prologue(&self) -> &[Stmt] {
        &self.prologue
    }

    /// Mutable prologue (used by transformations).
    pub fn prologue_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.prologue
    }

    /// Statements executed once per innermost-loop instance, after its
    /// last iteration (e.g. scalar-replacement draining stores).
    pub fn epilogue(&self) -> &[Stmt] {
        &self.epilogue
    }

    /// Mutable epilogue (used by transformations).
    pub fn epilogue_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.epilogue
    }

    /// Loop-variable names, outermost first.
    pub fn loop_vars(&self) -> Vec<&str> {
        self.loops.iter().map(|l| l.var()).collect()
    }

    /// Every array reference in the body, in execution order.
    pub fn refs(&self) -> Vec<RefInfo<'_>> {
        let mut out = Vec::new();
        for (s, stmt) in self.body.iter().enumerate() {
            let mut pos = 0;
            stmt.visit_refs(&mut |aref, is_def| {
                out.push(RefInfo {
                    id: RefId { stmt: s, pos },
                    aref,
                    is_def,
                });
                pos += 1;
            });
        }
        out
    }

    /// Floating-point operations per innermost iteration.
    pub fn flops_per_iter(&self) -> usize {
        self.body.iter().map(|s| s.flops()).sum()
    }

    /// Total innermost iterations executed by the whole nest.
    pub fn iterations(&self) -> i64 {
        self.loops.iter().map(|l| l.trip_count()).product()
    }

    /// `true` if every reference is separable SIV (§3.5), the class the
    /// Carr–Guan analysis targets.
    pub fn is_siv_separable(&self) -> bool {
        self.refs().iter().all(|r| r.aref.is_siv_separable())
    }

    /// Checks internal consistency; returns a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Reports duplicate loop variables, references to undeclared arrays,
    /// rank mismatches, and access matrices whose width is not the nest's
    /// depth.
    ///
    /// Linear in the size of the nest (hashed lookups throughout): the
    /// Fortran front end validates untrusted text through this, so a
    /// source with tens of thousands of declarations and references
    /// must not cost their product.
    pub fn validate(&self) -> Result<(), String> {
        let mut vars = HashSet::with_capacity(self.loops.len());
        for l in &self.loops {
            if !vars.insert(l.var()) {
                return Err(format!("duplicate loop variable {}", l.var()));
            }
        }
        // The first declaration of a name wins, as in `LoopNest::array`.
        let mut decls: HashMap<&str, &ArrayDecl> = HashMap::with_capacity(self.arrays.len());
        for a in &self.arrays {
            decls.entry(a.name()).or_insert(a);
        }
        for stmt in &self.body {
            for (aref, _) in stmt.refs() {
                let Some(decl) = decls.get(aref.array()) else {
                    return Err(format!("reference to undeclared array {}", aref.array()));
                };
                if decl.dims().len() != aref.rank() {
                    return Err(format!(
                        "rank mismatch on {}: declared {}, referenced {}",
                        aref.array(),
                        decl.dims().len(),
                        aref.rank()
                    ));
                }
                let width = aref.access_matrix().0.cols();
                if width != self.depth() {
                    return Err(format!(
                        "a subscript of {} spans {width} loops, the nest has {}",
                        aref.array(),
                        self.depth()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use ujam_linalg::Mat;

    /// `array(H·i + c)` with one row per dimension.
    fn aref(array: &str, rows: &[&[i64]]) -> ArrayRef {
        ArrayRef::new(array, Mat::from_rows(rows), vec![0; rows.len()])
    }

    fn two_deep() -> LoopNest {
        // DO J = 1,4 ; DO I = 1,8 ; A(J) = A(J) + B(I)
        let a_j = aref("A", &[&[1, 0]]);
        let b_i = aref("B", &[&[0, 1]]);
        let rhs = Expr::bin(BinOp::Add, Expr::Ref(a_j.clone()), Expr::Ref(b_i));
        LoopNest::new(
            "t",
            vec![ArrayDecl::new("A", &[4]), ArrayDecl::new("B", &[8])],
            vec![Loop::new("J", 1, 4), Loop::new("I", 1, 8)],
            vec![Stmt::assign(a_j, rhs)],
        )
    }

    #[test]
    fn refs_enumerate_in_execution_order() {
        let n = two_deep();
        let refs = n.refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].aref.array(), "A");
        assert!(!refs[0].is_def);
        assert_eq!(refs[1].aref.array(), "B");
        assert!(refs[2].is_def);
        assert_eq!(refs[2].id, RefId { stmt: 0, pos: 2 });
        assert_eq!(
            n.to_string().lines().nth(2),
            Some("      A(J) = A(J) + B(I)")
        );
    }

    #[test]
    fn counts() {
        let n = two_deep();
        assert_eq!(n.flops_per_iter(), 1);
        assert_eq!(n.iterations(), 32);
        assert_eq!(n.depth(), 2);
        assert!(n.is_siv_separable());
        n.validate().unwrap();
    }

    #[test]
    fn loop_trip_and_values() {
        let mut l = Loop::new("I", 1, 10);
        assert_eq!(l.trip_count(), 10);
        l.set_step(3);
        assert_eq!(l.values().collect::<Vec<_>>(), vec![1, 4, 7, 10]);
        assert_eq!(l.trip_count(), 4);
    }

    #[test]
    fn linearize_is_column_major() {
        let d = ArrayDecl::new("A", &[10, 5]);
        assert_eq!(d.linearize(&[1, 1]), 0);
        assert_eq!(d.linearize(&[2, 1]), 1); // first dim contiguous
        assert_eq!(d.linearize(&[1, 2]), 10);
        assert_eq!(d.len(), 50);
    }

    #[test]
    fn validation_catches_undeclared_arrays_and_wrong_widths() {
        let n = LoopNest::new(
            "bad",
            vec![],
            vec![Loop::new("I", 1, 2)],
            vec![Stmt::assign(aref("Z", &[&[1]]), Expr::Const(0.0))],
        );
        assert!(n.validate().unwrap_err().contains("undeclared"));

        let n = LoopNest::new(
            "bad2",
            vec![ArrayDecl::new("A", &[4])],
            vec![Loop::new("I", 1, 2)],
            vec![Stmt::assign(aref("A", &[&[0, 1]]), Expr::Const(0.0))],
        );
        assert!(n.validate().unwrap_err().contains("spans 2 loops"));
    }

    #[test]
    fn validation_catches_rank_mismatch_and_dup_vars() {
        let n = LoopNest::new(
            "bad3",
            vec![ArrayDecl::new("A", &[4])],
            vec![Loop::new("I", 1, 2)],
            vec![Stmt::assign(aref("A", &[&[1], &[1]]), Expr::Const(0.0))],
        );
        assert!(n.validate().unwrap_err().contains("rank mismatch"));

        let n = LoopNest::new(
            "bad4",
            vec![],
            vec![Loop::new("I", 1, 2), Loop::new("I", 1, 2)],
            vec![],
        );
        assert!(n.validate().unwrap_err().contains("duplicate"));
    }
}

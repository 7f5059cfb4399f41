//! Floating-point expression trees.

use crate::nest::Loop;
use crate::subscript::{ArrayRef, Named};
use std::fmt;

/// A binary floating-point operator.
///
/// Each application counts as one floating-point operation in the balance
/// model (§3.2 of the paper); divides are still one issued operation even
/// though they occupy the pipe longer — the scheduler in `ujam-sim` accounts
/// for latency separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// The Fortran spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// A scalar floating-point expression.
///
/// Expressions appear on the right-hand side of [`crate::Stmt`] assignments.
/// Array references are the unit the reuse analysis tracks; scalars are
/// loop-invariant values or the temporaries introduced by scalar
/// replacement (register-resident, so they cost no memory operation).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// An array reference (a load when it appears in an expression).
    Ref(ArrayRef),
    /// A named scalar (register-resident; no memory traffic).
    Scalar(String),
    /// A literal constant.
    Const(f64),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation (costs one FP operation).
    Neg(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Number of floating-point operations in the expression.
    ///
    /// # Example
    ///
    /// ```
    /// use ujam_ir::{parse_expr, Loop};
    /// let e = parse_expr("A(I) * B(I) + 2.0", &[Loop::new("I", 1, 8)]).unwrap();
    /// assert_eq!(e.flops(), 2);
    /// ```
    pub fn flops(&self) -> usize {
        match self {
            Expr::Ref(_) | Expr::Scalar(_) | Expr::Const(_) => 0,
            Expr::Bin(_, l, r) => 1 + l.flops() + r.flops(),
            Expr::Neg(e) => 1 + e.flops(),
        }
    }

    /// All array references in evaluation (left-to-right) order.
    pub fn refs(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.visit_refs(&mut |r| out.push(r));
        out
    }

    /// Visits every array reference in evaluation order.
    pub fn visit_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        match self {
            Expr::Ref(r) => f(r),
            Expr::Scalar(_) | Expr::Const(_) => {}
            Expr::Bin(_, l, r) => {
                l.visit_refs(f);
                r.visit_refs(f);
            }
            Expr::Neg(e) => e.visit_refs(f),
        }
    }

    /// A copy with every array reference `r` replaced by `f(r)`, in
    /// evaluation order.
    pub(crate) fn map_refs(&self, f: &mut impl FnMut(&ArrayRef) -> ArrayRef) -> Expr {
        match self {
            Expr::Ref(r) => Expr::Ref(f(r)),
            Expr::Scalar(s) => Expr::Scalar(s.clone()),
            Expr::Const(c) => Expr::Const(*c),
            Expr::Bin(op, l, r) => {
                let l = l.map_refs(f);
                Expr::bin(*op, l, r.map_refs(f))
            }
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_refs(f))),
        }
    }

    /// Replaces array references for which `f` returns `Some(name)` with the
    /// named scalar; used by scalar replacement.
    pub fn replace_refs(&mut self, f: &mut impl FnMut(&ArrayRef) -> Option<String>) {
        match self {
            Expr::Ref(r) => {
                if let Some(name) = f(r) {
                    *self = Expr::Scalar(name);
                }
            }
            Expr::Scalar(_) | Expr::Const(_) => {}
            Expr::Bin(_, l, r) => {
                l.replace_refs(f);
                r.replace_refs(f);
            }
            Expr::Neg(e) => e.replace_refs(f),
        }
    }
}

impl Expr {
    /// The expression as source text, its references rendered through
    /// the nest's loop names (`loops[k]` names loop `k`).
    pub fn display<'a>(&'a self, loops: &'a [Loop]) -> impl fmt::Display + 'a {
        Named(self, loops)
    }
}

impl fmt::Display for Named<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Named(e, loops) = *self;
        match e {
            Expr::Ref(r) => write!(f, "{}", r.display(loops)),
            Expr::Scalar(s) => write!(f, "{s}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Bin(op, l, r) => {
                let needs_l = matches!(**l, Expr::Bin(inner, _, _)
                    if precedence(inner) < precedence(*op));
                let needs_r = matches!(**r, Expr::Bin(inner, _, _)
                    if precedence(inner) <= precedence(*op))
                    && matches!(op, BinOp::Sub | BinOp::Div | BinOp::Mul);
                let (l, r) = (l.display(loops), r.display(loops));
                if needs_l {
                    write!(f, "({l})")?;
                } else {
                    write!(f, "{l}")?;
                }
                write!(f, " {} ", op.symbol())?;
                if needs_r {
                    write!(f, "({r})")
                } else {
                    write!(f, "{r}")
                }
            }
            Expr::Neg(e) => write!(f, "-({})", e.display(loops)),
        }
    }
}

fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul | BinOp::Div => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_linalg::Mat;

    /// `name(I)` in a one-deep nest over `I`.
    fn aref(name: &str) -> ArrayRef {
        ArrayRef::new(name, Mat::identity(1), vec![0])
    }

    #[test]
    fn flop_counting() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Ref(aref("A")), Expr::Ref(aref("B"))),
            Expr::Const(1.0),
        );
        assert_eq!(e.flops(), 2);
        assert_eq!(Expr::Neg(Box::new(Expr::Const(1.0))).flops(), 1);
        assert_eq!(Expr::Scalar("s".into()).flops(), 0);
    }

    #[test]
    fn ref_collection_is_in_eval_order() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::Ref(aref("A")),
            Expr::bin(BinOp::Mul, Expr::Ref(aref("B")), Expr::Ref(aref("C"))),
        );
        let names: Vec<&str> = e.refs().iter().map(|r| r.array()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn replace_refs_substitutes_scalars() {
        let mut e = Expr::bin(BinOp::Add, Expr::Ref(aref("A")), Expr::Ref(aref("B")));
        e.replace_refs(&mut |r| (r.array() == "A").then(|| "t0".to_string()));
        let loops = [Loop::new("I", 1, 4)];
        assert_eq!(e.display(&loops).to_string(), "t0 + B(I)");
        assert_eq!(e.refs().len(), 1);
    }

    #[test]
    fn display_parenthesizes_by_precedence() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(
                BinOp::Add,
                Expr::Scalar("a".into()),
                Expr::Scalar("b".into()),
            ),
            Expr::Scalar("c".into()),
        );
        assert_eq!(e.display(&[]).to_string(), "(a + b) * c");
        let e2 = Expr::bin(
            BinOp::Sub,
            Expr::Scalar("a".into()),
            Expr::bin(
                BinOp::Add,
                Expr::Scalar("b".into()),
                Expr::Scalar("c".into()),
            ),
        );
        assert_eq!(e2.display(&[]).to_string(), "a - (b + c)");
    }
}

//! A builder DSL (with a tiny Fortran-expression parser) for loop nests.

use crate::expr::{BinOp, Expr};
use crate::nest::{ArrayDecl, ArrayRef, Loop, LoopNest, Stmt};
use crate::subscript::AffineSub;

/// Incremental builder for a [`LoopNest`].
///
/// The builder accepts statements either as structured values or as Fortran
/// flavoured strings (`"A(I,J) = A(I,J) + B(I)"`), which keeps kernel
/// definitions close to the paper's listings.
///
/// # Example
///
/// ```
/// use ujam_ir::NestBuilder;
/// let nest = NestBuilder::new("dmxpy")
///     .array("Y", &[256])
///     .array("M", &[256, 256])
///     .array("X", &[256])
///     .loop_("J", 1, 256)
///     .loop_("I", 1, 256)
///     .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
///     .build();
/// assert_eq!(nest.flops_per_iter(), 2);
/// ```
#[derive(Debug, Default)]
pub struct NestBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    loops: Vec<Loop>,
    body: Vec<Stmt>,
}

impl NestBuilder {
    /// Starts a nest with a diagnostic name.
    pub fn new(name: &str) -> NestBuilder {
        NestBuilder {
            name: name.to_string(),
            ..NestBuilder::default()
        }
    }

    /// Declares an array (extents in Fortran order: first dim contiguous).
    #[must_use]
    pub fn array(mut self, name: &str, dims: &[i64]) -> NestBuilder {
        self.arrays.push(ArrayDecl::new(name, dims));
        self
    }

    /// Adds the next-inner loop `DO var = lower, upper`.
    #[must_use]
    pub fn loop_(mut self, var: &str, lower: i64, upper: i64) -> NestBuilder {
        self.loops.push(Loop::new(var, lower, upper));
        self
    }

    /// Adds a structured assignment statement.
    #[must_use]
    pub fn assign(mut self, lhs: ArrayRef, rhs: Expr) -> NestBuilder {
        self.body.push(Stmt::assign(lhs, rhs));
        self
    }

    /// Adds an assignment whose right-hand side is parsed from a string.
    ///
    /// # Panics
    ///
    /// Panics on a malformed expression (builder misuse is a programming
    /// error; use [`parse_expr`] directly for fallible parsing).
    #[must_use]
    pub fn assign_expr(mut self, array: &str, dims: Vec<AffineSub>, rhs: &str) -> NestBuilder {
        let rhs = parse_expr(rhs).unwrap_or_else(|e| panic!("bad expression {rhs:?}: {e}"));
        self.body
            .push(Stmt::assign(ArrayRef::new(array, dims), rhs));
        self
    }

    /// Adds a statement parsed from `"lhs = rhs"` form.  The left-hand side
    /// may be an array reference or a bare scalar name.
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    #[must_use]
    pub fn stmt(mut self, text: &str) -> NestBuilder {
        self.body
            .push(parse_stmt(text).unwrap_or_else(|e| panic!("bad statement {text:?}: {e}")));
        self
    }

    /// Fallible variant of [`NestBuilder::stmt`] for callers handling
    /// untrusted input (e.g. the Fortran front end).
    ///
    /// # Errors
    ///
    /// Returns the statement parser's description of the syntax error.
    pub fn try_stmt(mut self, text: &str) -> Result<NestBuilder, String> {
        self.body.push(parse_stmt(text)?);
        Ok(self)
    }

    /// Finishes and validates the nest.
    ///
    /// # Panics
    ///
    /// Panics if validation fails; see [`NestBuilder::try_build`].
    pub fn build(self) -> LoopNest {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid loop nest: {e}"))
    }

    /// Finishes the nest, reporting validation problems.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (unbound variables, undeclared
    /// arrays, rank mismatches, duplicate loop variables, empty nest).
    pub fn try_build(self) -> Result<LoopNest, String> {
        if self.loops.is_empty() {
            return Err("nest has no loops".into());
        }
        if self.body.is_empty() {
            return Err("nest has no statements".into());
        }
        let nest = LoopNest::new(&self.name, self.arrays, self.loops, self.body);
        nest.validate()?;
        Ok(nest)
    }
}

/// Parses a Fortran-flavoured floating-point expression.
///
/// Grammar: `+ - * /` with usual precedence, parentheses, numeric literals,
/// scalar identifiers, and array references `NAME(dim, dim, ...)` whose
/// dimensions are affine combinations of loop indices (`I`, `I+2`, `2*J-1`,
/// `2J-1`, `4`).
///
/// # Errors
///
/// Returns a description of the first syntax error.
///
/// # Example
///
/// ```
/// use ujam_ir::parse_expr;
/// let e = parse_expr("A(I,J) + 0.5 * (B(I) - C(2J-1))").unwrap();
/// assert_eq!(e.flops(), 3);
/// ```
pub fn parse_expr(text: &str) -> Result<Expr, String> {
    let mut p = Parser::new(text);
    let (e, _) = p.expr()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(e)
}

/// Parses a full `"lhs = rhs"` statement.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub(crate) fn parse_stmt(text: &str) -> Result<Stmt, String> {
    let eq = text.find('=').ok_or("statement missing '='")?;
    let (lhs_text, rhs_text) = (text[..eq].trim(), text[eq + 1..].trim());
    let rhs = parse_expr(rhs_text)?;
    let mut p = Parser::new(lhs_text);
    p.skip_ws();
    let name = p.ident().ok_or("statement lhs must start with a name")?;
    p.skip_ws();
    if p.peek() == Some('(') {
        let dims = p.subscripts()?;
        p.skip_ws();
        if !p.at_end() {
            return Err("trailing input after lhs reference".into());
        }
        Ok(Stmt::assign(ArrayRef::new(&name, dims), rhs))
    } else if p.at_end() {
        Ok(Stmt::assign_scalar(&name, rhs))
    } else {
        Err("malformed lhs".into())
    }
}

/// Deepest expression the parser accepts: an operator node, a unary
/// minus and a parenthesis each count one level.  Everything downstream
/// (rendering, reference collection, drop) walks expressions
/// recursively, so text from outside must not nest without bound.
const MAX_EXPR_DEPTH: usize = 256;

fn too_deep() -> String {
    format!("expression nested deeper than {MAX_EXPR_DEPTH} levels")
}

/// Joins two parsed operands (each with its tree depth) under `op`.
fn join(
    op: BinOp,
    (l, dl): (Expr, usize),
    (r, dr): (Expr, usize),
) -> Result<(Expr, usize), String> {
    let depth = 1 + dl.max(dr);
    if depth > MAX_EXPR_DEPTH {
        return Err(too_deep());
    }
    Ok((Expr::bin(op, l, r), depth))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Open parentheses and unary minuses around the current factor:
    /// the parser's own recursion depth.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            nesting: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn ident(&mut self) -> Option<String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            if self.pos == start && self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return None;
            }
            self.bump();
        }
        (self.pos > start).then(|| self.text[start..self.pos].to_string())
    }

    fn number(&mut self) -> Option<f64> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.') {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        self.text[start..self.pos].parse().ok()
    }

    fn integer(&mut self) -> Option<i64> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        self.text[start..self.pos].parse().ok()
    }

    /// An expression and the depth of its tree.
    fn expr(&mut self) -> Result<(Expr, usize), String> {
        let mut lhs = self.term()?;
        loop {
            self.skip_ws();
            let op = match self.peek() {
                Some('+') => BinOp::Add,
                Some('-') => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.term()?;
            lhs = join(op, lhs, rhs)?;
        }
    }

    fn term(&mut self) -> Result<(Expr, usize), String> {
        let mut lhs = self.factor()?;
        loop {
            self.skip_ws();
            let op = match self.peek() {
                Some('*') => BinOp::Mul,
                Some('/') => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = join(op, lhs, rhs)?;
        }
    }

    fn factor(&mut self) -> Result<(Expr, usize), String> {
        self.skip_ws();
        match self.peek() {
            Some('-') => {
                self.bump();
                let (e, depth) = self.nested(Parser::factor)?;
                if depth + 1 > MAX_EXPR_DEPTH {
                    return Err(too_deep());
                }
                Ok((Expr::Neg(Box::new(e)), depth + 1))
            }
            Some('(') => {
                self.bump();
                let e = self.nested(Parser::expr)?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err("expected ')'".into());
                }
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() || c == '.' => self
                .number()
                .map(|k| (Expr::Const(k), 1))
                .ok_or_else(|| "bad number".into()),
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                let name = self.ident().ok_or("bad identifier")?;
                self.skip_ws();
                if self.peek() == Some('(') {
                    let dims = self.subscripts()?;
                    Ok((Expr::Ref(ArrayRef::new(&name, dims)), 1))
                } else {
                    Ok((Expr::Scalar(name), 1))
                }
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Runs `inner` one parenthesis or unary minus deeper, refusing to
    /// recurse past `MAX_EXPR_DEPTH`.
    fn nested(
        &mut self,
        inner: fn(&mut Parser<'a>) -> Result<(Expr, usize), String>,
    ) -> Result<(Expr, usize), String> {
        if self.nesting == MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.nesting += 1;
        let e = inner(self);
        self.nesting -= 1;
        e
    }

    /// Parses `(dim, dim, ...)` where each dim is an affine combination.
    fn subscripts(&mut self) -> Result<Vec<AffineSub>, String> {
        if self.bump() != Some('(') {
            return Err("expected '('".into());
        }
        let mut dims = Vec::new();
        loop {
            dims.push(self.affine()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(')') => return Ok(dims),
                other => return Err(format!("expected ',' or ')', got {other:?}")),
            }
        }
    }

    /// Parses one affine dimension: signed terms `k`, `I`, `2I`, `2*I`.
    fn affine(&mut self) -> Result<AffineSub, String> {
        let mut terms: Vec<(i64, String)> = Vec::new();
        let mut offset = 0i64;
        let mut sign;
        let mut first = true;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('+') => {
                    self.bump();
                    sign = 1;
                }
                Some('-') => {
                    self.bump();
                    sign = -1;
                }
                _ if first => sign = 1,
                Some(',') | Some(')') => break,
                None => return Err("unterminated subscript".into()),
                other => return Err(format!("unexpected {other:?} in subscript")),
            }
            self.skip_ws();
            if let Some(k) = self.integer() {
                self.skip_ws();
                if self.peek() == Some('*') {
                    self.bump();
                    self.skip_ws();
                }
                if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == '_') {
                    let var = self.ident().ok_or("bad subscript identifier")?;
                    terms.push((sign * k, var));
                } else {
                    offset += sign * k;
                }
            } else if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == '_') {
                let var = self.ident().ok_or("bad subscript identifier")?;
                terms.push((sign, var));
            } else {
                return Err(format!("expected term in subscript at byte {}", self.pos));
            }
            first = false;
            self.skip_ws();
            if !matches!(self.peek(), Some('+') | Some('-')) {
                break;
            }
        }
        let term_refs: Vec<(i64, &str)> = terms.iter().map(|(c, v)| (*c, v.as_str())).collect();
        Ok(AffineSub::from_terms(&term_refs, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::Lhs;
    use crate::subscript::{sub, sub_affine};

    #[test]
    fn parses_simple_refs_and_scalars() {
        let e = parse_expr("A(I) + s").unwrap();
        assert_eq!(e.to_string(), "A(I) + s");
        assert_eq!(e.refs().len(), 1);
    }

    #[test]
    fn parses_affine_subscripts() {
        let e = parse_expr("A(2J-1, I+2, 4)").unwrap();
        let r = e.refs()[0];
        assert_eq!(r.dims()[0], sub_affine(&[(2, "J")], -1));
        assert_eq!(r.dims()[1], sub("I").offset(2));
        assert_eq!(r.dims()[2].constant_part(), 4);
    }

    #[test]
    fn parses_star_form_subscripts() {
        let e = parse_expr("A(2*J - 1)").unwrap();
        assert_eq!(e.refs()[0].dims()[0], sub_affine(&[(2, "J")], -1));
    }

    #[test]
    fn precedence_and_parens() {
        let e = parse_expr("1.0 + 2.0 * 3.0").unwrap();
        assert_eq!(e.flops(), 2);
        assert_eq!(e.to_string(), "1 + 2 * 3");
        let e = parse_expr("(1.0 + 2.0) * 3.0").unwrap();
        assert_eq!(e.to_string(), "(1 + 2) * 3");
    }

    #[test]
    fn unary_negation() {
        let e = parse_expr("-A(I) * B(I)").unwrap();
        assert_eq!(e.flops(), 2);
    }

    #[test]
    fn statement_with_array_lhs() {
        let s = parse_stmt("A(I,J) = A(I,J) + 1.0").unwrap();
        match s.lhs() {
            Lhs::Array(a) => assert_eq!(a.array(), "A"),
            Lhs::Scalar(_) => panic!("expected array lhs"),
        }
    }

    #[test]
    fn statement_with_scalar_lhs() {
        let s = parse_stmt("acc = acc + A(I)").unwrap();
        assert!(matches!(s.lhs(), Lhs::Scalar(n) if n == "acc"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("A(I").is_err());
        assert!(parse_expr("A(I) +").is_err());
        assert!(parse_expr("(A(I)").is_err());
        assert!(parse_expr("A(I) B(J)").is_err());
        assert!(parse_stmt("A(I,J)").is_err());
    }

    #[test]
    fn depth_is_bounded() {
        let n = MAX_EXPR_DEPTH;
        // Exactly at the limit: a chain of n leaves has depth n ...
        let chain = |k: usize| vec!["X"; k].join(" + ");
        assert!(parse_expr(&chain(n)).is_ok());
        assert!(parse_expr(&chain(n + 1)).unwrap_err().contains("deeper"));
        // ... while parentheses and unary minus bound the recursion
        // itself, so a long run of either is refused, not overflowed.
        let parens = |k: usize| format!("{}X{}", "(".repeat(k), ")".repeat(k));
        assert!(parse_expr(&parens(n)).is_ok());
        assert!(parse_expr(&parens(n + 1)).unwrap_err().contains("deeper"));
        assert!(parse_expr(&parens(1 << 20)).unwrap_err().contains("deeper"));
        assert!(parse_expr(&format!("{}X", "-".repeat(n - 1))).is_ok());
        assert!(parse_expr(&format!("{}X", "-".repeat(1 << 20)))
            .unwrap_err()
            .contains("deeper"));
        // Depth is per tree, not per operator count: a balanced sum of
        // many more than n leaves still parses.
        let mut balanced = "X".to_string();
        for _ in 0..10 {
            balanced = format!("({balanced} + {balanced})");
        }
        assert_eq!(parse_expr(&balanced).unwrap().flops(), 1023);
    }

    #[test]
    fn builder_validates() {
        let err = NestBuilder::new("x")
            .loop_("I", 1, 4)
            .stmt("A(I) = 1.0")
            .try_build()
            .unwrap_err();
        assert!(err.contains("undeclared"));

        assert!(NestBuilder::new("y").try_build().is_err());
    }

    #[test]
    fn builder_round_trip() {
        let nest = NestBuilder::new("mm")
            .array("C", &[64, 64])
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .loop_("J", 1, 64)
            .loop_("K", 1, 64)
            .loop_("I", 1, 64)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.refs().len(), 4);
        assert_eq!(nest.flops_per_iter(), 2);
        assert!(nest.is_siv_separable());
    }
}

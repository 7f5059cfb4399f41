//! A builder DSL (with a tiny Fortran-expression parser) for loop nests.

use crate::expr::{BinOp, Expr};
use crate::nest::{ArrayDecl, Loop, LoopNest, Stmt};
use crate::subscript::ArrayRef;
use ujam_linalg::Mat;

/// Incremental builder for a [`LoopNest`].
///
/// The builder reads statements as Fortran-flavoured strings
/// (`"A(I,J) = A(I,J) + B(I)"`), which keeps kernel definitions close to
/// the paper's listings.  A statement's subscripts are read against the
/// loops declared before it, so declare the loops first.
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

    /// Adds a statement parsed from `"lhs = rhs"` form.  The left-hand side
    /// may be an array reference or a bare scalar name; subscripts name
    /// loops already declared.
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    #[must_use]
    pub fn stmt(self, text: &str) -> NestBuilder {
        self.try_stmt(text)
            .unwrap_or_else(|e| panic!("bad statement {text:?}: {e}"))
    }

    /// Fallible variant of [`NestBuilder::stmt`] for callers handling
    /// untrusted input (e.g. the Fortran front end).
    ///
    /// # Errors
    ///
    /// Returns the statement parser's description of the syntax error,
    /// or of the first subscript variable that names no declared loop.
    pub fn try_stmt(mut self, text: &str) -> Result<NestBuilder, String> {
        self.body.push(parse_stmt(text, &self.loops)?);
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
    /// Returns the first inconsistency found (empty nest, duplicate loop
    /// variables, undeclared arrays, rank mismatches).
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

/// Parses a Fortran-flavoured floating-point expression over the loops
/// `loops` (outermost first).
///
/// Grammar: `+ - * /` with usual precedence, parentheses, numeric literals,
/// scalar identifiers, and array references `NAME(dim, dim, ...)` whose
/// dimensions are affine combinations of loop indices (`I`, `I+2`, `2*J-1`,
/// `2J-1`, `4`).  Each index names one of `loops`; a reference stores its
/// coefficients by loop position.
///
/// # Errors
///
/// Returns a description of the first syntax error, or of the first
/// subscript variable that names none of `loops`.
///
/// # Example
///
/// ```
/// use ujam_ir::{parse_expr, Loop};
/// let loops = [Loop::new("J", 1, 8), Loop::new("I", 1, 8)];
/// let e = parse_expr("A(I,J) + 0.5 * (B(I) - C(2J-1))", &loops).unwrap();
/// assert_eq!(e.flops(), 3);
/// assert_eq!(e.refs()[2].access_matrix().0.row(0), &[2, 0]);
/// assert!(parse_expr("A(K)", &loops).is_err());
/// ```
pub fn parse_expr(text: &str, loops: &[Loop]) -> Result<Expr, String> {
    let (e, unbound) = expr_of(text, loops)?;
    unbound.map_or(Ok(e), Err)
}

/// The expression `text` parses to, and its first unbound subscript
/// variable's description: syntax errors come first.
fn expr_of(text: &str, loops: &[Loop]) -> Result<(Expr, Option<String>), String> {
    let mut p = Parser::new(text, loops);
    let (e, _) = p.expr()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok((e, p.unbound))
}

/// Parses a full `"lhs = rhs"` statement over the loops `loops`.
///
/// # Errors
///
/// Returns a description of the first syntax error, or of the first
/// subscript variable that names none of `loops`.
fn parse_stmt(text: &str, loops: &[Loop]) -> Result<Stmt, String> {
    let eq = text.find('=').ok_or("statement missing '='")?;
    let (lhs_text, rhs_text) = (text[..eq].trim(), text[eq + 1..].trim());
    let (rhs, rhs_unbound) = expr_of(rhs_text, loops)?;
    let mut p = Parser::new(lhs_text, loops);
    p.skip_ws();
    let name = p.ident().ok_or("statement lhs must start with a name")?;
    p.skip_ws();
    if p.peek() == Some('(') {
        let lhs = p.reference(name, 0)?;
        p.skip_ws();
        if !p.at_end() {
            return Err("trailing input after lhs reference".into());
        }
        rhs_unbound
            .or(p.unbound)
            .map_or(Ok(Stmt::assign(lhs, rhs)), Err)
    } else if p.at_end() {
        rhs_unbound.map_or(Ok(Stmt::assign_scalar(name, rhs)), Err)
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
    /// The loops subscripts may name, outermost first.
    loops: &'a [Loop],
    /// The first subscript variable that names none of `loops`, reported
    /// once the text has parsed.
    unbound: Option<String>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, loops: &'a [Loop]) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            nesting: 0,
            loops,
            unbound: None,
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

    fn ident(&mut self) -> Option<&'a str> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            if self.pos == start && self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return None;
            }
            self.bump();
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
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
                let start = self.pos;
                let name = self.ident().ok_or("bad identifier")?;
                self.skip_ws();
                if self.peek() == Some('(') {
                    Ok((Expr::Ref(self.reference(name, start)?), 1))
                } else {
                    Ok((Expr::Scalar(name.to_string()), 1))
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

    /// Parses the subscripts `(dim, dim, ...)` of the reference to `name`
    /// that starts at byte `start`; each dim is an affine combination.
    fn reference(&mut self, name: &str, start: usize) -> Result<ArrayRef, String> {
        if self.bump() != Some('(') {
            return Err("expected '('".into());
        }
        let depth = self.loops.len();
        let (mut h, mut c) = (Vec::new(), Vec::new());
        let mut unbound = None;
        loop {
            h.resize(h.len() + depth, 0);
            let at = h.len() - depth;
            c.push(self.affine(&mut h[at..], &mut unbound)?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(')') => break,
                other => return Err(format!("expected ',' or ')', got {other:?}")),
            }
        }
        if let Some(var) = unbound {
            let text = &self.text[start..self.pos];
            self.unbound
                .get_or_insert_with(|| format!("unbound subscript variable {var} in {text}"));
        }
        Ok(ArrayRef::new(name, Mat::from_vec(c.len(), depth, h), c))
    }

    /// Parses one affine dimension (signed terms `k`, `I`, `2I`, `2*I`),
    /// adding each index's coefficient to its loop's entry of `row`, and
    /// returns its constant.  The first index that names no loop is
    /// noted in `unbound`.
    fn affine(&mut self, row: &mut [i64], unbound: &mut Option<&'a str>) -> Result<i64, String> {
        let loops = self.loops;
        let mut add = |coef: i64, var: &'a str| match loops.iter().position(|l| l.var() == var) {
            Some(k) => row[k] += coef,
            None => {
                unbound.get_or_insert(var);
            }
        };
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
                    add(sign * k, var);
                } else {
                    offset += sign * k;
                }
            } else if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == '_') {
                let var = self.ident().ok_or("bad subscript identifier")?;
                add(sign, var);
            } else {
                return Err(format!("expected term in subscript at byte {}", self.pos));
            }
            first = false;
            self.skip_ws();
            if !matches!(self.peek(), Some('+') | Some('-')) {
                break;
            }
        }
        Ok(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::Lhs;

    /// `DO J / DO I`.
    fn ji() -> [Loop; 2] {
        [Loop::new("J", 1, 8), Loop::new("I", 1, 8)]
    }

    fn parse_expr(text: &str) -> Result<Expr, String> {
        super::parse_expr(text, &ji())
    }

    fn parse_stmt(text: &str) -> Result<Stmt, String> {
        super::parse_stmt(text, &ji())
    }

    #[test]
    fn parses_simple_refs_and_scalars() {
        let e = parse_expr("A(I) + s").unwrap();
        assert_eq!(e.display(&ji()).to_string(), "A(I) + s");
        assert_eq!(e.refs().len(), 1);
    }

    #[test]
    fn parses_affine_subscripts() {
        let e = parse_expr("A(2J-1, I+2, 4)").unwrap();
        let (h, c) = e.refs()[0].access_matrix();
        assert_eq!(*h, Mat::from_rows(&[&[2, 0], &[0, 1], &[0, 0]]));
        assert_eq!(c, &[-1, 2, 4]);
    }

    #[test]
    fn parses_star_form_subscripts() {
        let e = parse_expr("A(2*J - 1 + I - I)").unwrap();
        let (h, c) = e.refs()[0].access_matrix();
        assert_eq!((h.row(0), c), (&[2, 0][..], &[-1][..]));
    }

    #[test]
    fn unbound_subscript_variables_are_refused_after_syntax() {
        let e = parse_expr("B(I) + A(I, K+1) + A(L)").unwrap_err();
        assert_eq!(e, "unbound subscript variable K in A(I, K+1)");
        assert!(parse_stmt("A(K) = 1.0")
            .unwrap_err()
            .contains("variable K in A(K)"));
        // A syntax error anywhere in the statement is reported first.
        assert!(parse_stmt("A(I) + = B(K)").unwrap_err().contains("lhs"));
        // A scalar may share a loop's name; only subscripts resolve.
        assert!(parse_stmt("K = I").is_ok());
    }

    #[test]
    fn precedence_and_parens() {
        let e = parse_expr("1.0 + 2.0 * 3.0").unwrap();
        assert_eq!(e.flops(), 2);
        assert_eq!(e.display(&[]).to_string(), "1 + 2 * 3");
        let e = parse_expr("(1.0 + 2.0) * 3.0").unwrap();
        assert_eq!(e.display(&[]).to_string(), "(1 + 2) * 3");
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

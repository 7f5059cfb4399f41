//! The DO-nest parser.

use std::fmt;
use ujam_ir::{LoopNest, NestBuilder};

/// A parse failure, with the 1-based source line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest `DO` nest the front end accepts.  A nest renders with one
/// indentation step per level on every body line, so without a bound a
/// source of `n` loop headers would render (and key) in `O(n²)` bytes.
/// The paper's kernels are 2–5 deep.
pub const MAX_NEST_DEPTH: usize = 16;

/// One meaningful source line.
#[derive(Debug)]
enum Line {
    Subroutine(String),
    Dimension(Vec<(String, Vec<i64>)>),
    /// `DO [label] var = lo, hi[, step]`
    Do {
        label: Option<String>,
        var: String,
        lo: i64,
        hi: i64,
        step: i64,
    },
    EndDo,
    /// `<label> CONTINUE`
    Continue(String),
    Assign(String),
    End,
}

/// Parses a subroutine holding one perfect `DO` nest into a validated
/// loop nest.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for anything outside
/// the supported subset (see the crate docs).
///
/// # Example
///
/// ```
/// let src = "
///       SUBROUTINE INTRO
///       DIMENSION A(512), B(512)
///       DO 10 J = 1, 512
///       DO 10 I = 1, 512
///       A(J) = A(J) + B(I)
///  10   CONTINUE
///       END";
/// let nest = ujam_fortran::parse(src).unwrap();
/// assert_eq!(nest.name(), "INTRO");
/// assert_eq!(nest.depth(), 2);
/// assert_eq!(nest.flops_per_iter(), 1);
/// ```
pub fn parse(source: &str) -> Result<LoopNest, ParseError> {
    let mut name = "nest".to_string();
    let mut arrays: Vec<(String, Vec<i64>)> = Vec::new();
    // Open DO loops: (label, var, lo, hi, step, line).
    let mut open: Vec<(Option<String>, String, i64, i64, i64, usize)> = Vec::new();
    let mut closed = 0usize; // loops fully closed so far
    let mut body: Vec<(String, usize)> = Vec::new();
    let mut max_depth = 0usize;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let Some(line) = classify(raw, lineno)? else {
            continue;
        };
        match line {
            Line::Subroutine(n) => name = n,
            Line::Dimension(mut decls) => arrays.append(&mut decls),
            Line::Do {
                label,
                var,
                lo,
                hi,
                step,
            } => {
                if step != 1 {
                    return Err(err(lineno, "only unit-step DO loops are supported"));
                }
                if hi < lo {
                    return Err(err(lineno, format!("empty DO loop {var} = {lo}, {hi}")));
                }
                if open.len() == MAX_NEST_DEPTH {
                    return Err(err(
                        lineno,
                        format!("DO nest deeper than {MAX_NEST_DEPTH} loops"),
                    ));
                }
                if !body.is_empty() || closed > 0 {
                    return Err(err(
                        lineno,
                        "imperfect nest: DO after statements or a closed loop",
                    ));
                }
                open.push((label, var, lo, hi, step, lineno));
                max_depth = max_depth.max(open.len());
            }
            Line::EndDo => {
                let Some(_) = open.pop() else {
                    return Err(err(lineno, "ENDDO without an open DO"));
                };
                closed += 1;
            }
            Line::Continue(label) => {
                // A labeled CONTINUE closes every open loop bearing that
                // label (the shared-label Fortran idiom).
                let before = open.len();
                while open
                    .last()
                    .is_some_and(|(l, ..)| l.as_deref() == Some(label.as_str()))
                {
                    open.pop();
                    closed += 1;
                }
                if open.len() == before {
                    return Err(err(
                        lineno,
                        format!("CONTINUE label {label} matches no open DO"),
                    ));
                }
            }
            Line::Assign(text) => {
                if open.is_empty() {
                    return Err(err(lineno, "assignment outside any DO loop"));
                }
                if open.len() != max_depth {
                    return Err(err(
                        lineno,
                        "imperfect nest: statement above the innermost loop",
                    ));
                }
                body.push((text, lineno));
            }
            Line::End => break,
        }
    }
    if !open.is_empty() {
        return Err(err(
            open.last().expect("non-empty").5,
            "unterminated DO loop",
        ));
    }

    // Assemble through the validating builder.
    let mut b = NestBuilder::new(&name);
    for (arr, dims) in &arrays {
        b = b.array(arr, dims);
    }
    // `open` has been drained; rebuild loop order from a second pass is
    // unnecessary — we recorded loops as they opened.
    b = rebuilt_loops(source)?
        .into_iter()
        .fold(b, |b, (var, lo, hi)| b.loop_(&var, lo, hi));
    for (text, lineno) in &body {
        b = b
            .try_stmt(text)
            .map_err(|e| err(*lineno, format!("bad assignment: {e}")))?;
    }
    b.try_build()
        .map_err(|e| err(0, format!("invalid nest: {e}")))
}

/// Second tiny pass extracting the loop headers in order (keeps the main
/// pass simple).
fn rebuilt_loops(source: &str) -> Result<Vec<(String, i64, i64)>, ParseError> {
    let mut loops = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if let Some(Line::Do { var, lo, hi, .. }) = classify(raw, idx + 1)? {
            loops.push((var, lo, hi));
        }
    }
    Ok(loops)
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Classifies one raw source line; `None` for blanks and comments.
fn classify(raw: &str, lineno: usize) -> Result<Option<Line>, ParseError> {
    // Fixed-form comments: C or * in column 1; free-form `!`.
    if matches!(raw.chars().next(), Some('C') | Some('c') | Some('*'))
        && raw.len() > 1
        && raw.chars().nth(1).is_some_and(|c| c.is_whitespace())
    {
        return Ok(None);
    }
    let no_comment = match raw.find('!') {
        Some(p) => &raw[..p],
        None => raw,
    };
    let text = no_comment.trim();
    if text.is_empty() {
        return Ok(None);
    }
    let upper = text.to_ascii_uppercase();

    // `<label> CONTINUE`
    if let Some(rest) = upper.strip_suffix("CONTINUE") {
        let label = rest.trim();
        if !label.is_empty() && label.chars().all(|c| c.is_ascii_digit()) {
            return Ok(Some(Line::Continue(label.to_string())));
        }
        if label.is_empty() {
            return Ok(None); // bare CONTINUE is a no-op
        }
    }
    if upper == "ENDDO" || upper == "END DO" {
        return Ok(Some(Line::EndDo));
    }
    if upper == "END" || upper.starts_with("END ") && !upper.starts_with("END DO") {
        return Ok(Some(Line::End));
    }
    if let Some(rest) = upper.strip_prefix("SUBROUTINE") {
        let name = rest.trim().split('(').next().unwrap_or("").trim();
        if name.is_empty() {
            return Err(err(lineno, "SUBROUTINE without a name"));
        }
        return Ok(Some(Line::Subroutine(name.to_string())));
    }
    if let Some(rest) = upper.strip_prefix("PROGRAM") {
        return Ok(Some(Line::Subroutine(rest.trim().to_string())));
    }
    if let Some(rest) = upper.strip_prefix("DIMENSION") {
        return parse_dimension(rest, lineno).map(|d| Some(Line::Dimension(d)));
    }
    if upper.starts_with("DO") && upper.len() > 2 && !upper.as_bytes()[2].is_ascii_alphanumeric() {
        return parse_do(&upper[2..], lineno).map(Some);
    }
    // Anything with '=' is an assignment statement (kept in original case
    // so array and index names round-trip).
    if text.contains('=') {
        return Ok(Some(Line::Assign(text.to_string())));
    }
    Err(err(lineno, format!("unrecognized statement {text:?}")))
}

/// Parses `A(100,100), B(240)` declaration lists.
fn parse_dimension(rest: &str, lineno: usize) -> Result<Vec<(String, Vec<i64>)>, ParseError> {
    let mut out = Vec::new();
    let mut s = rest.trim();
    while !s.is_empty() {
        let open = s
            .find('(')
            .ok_or_else(|| err(lineno, "DIMENSION entry missing '('"))?;
        let name = s[..open].trim().trim_start_matches(',').trim();
        if name.is_empty() {
            return Err(err(lineno, "DIMENSION entry missing a name"));
        }
        let close = s[open..]
            .find(')')
            .map(|c| open + c)
            .ok_or_else(|| err(lineno, "DIMENSION entry missing ')'"))?;
        let dims: Result<Vec<i64>, _> = s[open + 1..close]
            .split(',')
            .map(|d| d.trim().parse::<i64>())
            .collect();
        let dims = dims.map_err(|_| err(lineno, "array extents must be integer constants"))?;
        if dims.iter().any(|&d| d <= 0) {
            return Err(err(
                lineno,
                format!("array {name} has a non-positive extent"),
            ));
        }
        out.push((name.to_string(), dims));
        s = s[close + 1..].trim().trim_start_matches(',').trim();
    }
    Ok(out)
}

/// Parses ` [label] VAR = lo, hi[, step]` after the `DO` keyword.
fn parse_do(rest: &str, lineno: usize) -> Result<Line, ParseError> {
    let mut s = rest.trim();
    let mut label = None;
    // Optional numeric label.
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    if !digits.is_empty() {
        label = Some(digits.clone());
        s = s[digits.len()..].trim();
    }
    let eq = s.find('=').ok_or_else(|| err(lineno, "DO without '='"))?;
    let var = s[..eq].trim().to_string();
    if var.is_empty() || !var.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(err(lineno, format!("bad DO variable {var:?}")));
    }
    let bounds: Vec<&str> = s[eq + 1..].split(',').map(str::trim).collect();
    if bounds.len() < 2 || bounds.len() > 3 {
        return Err(err(lineno, "DO bounds must be 'lo, hi' or 'lo, hi, step'"));
    }
    let parse_int = |t: &str| {
        t.parse::<i64>()
            .map_err(|_| err(lineno, format!("DO bound {t:?} is not an integer constant")))
    };
    Ok(Line::Do {
        label,
        var,
        lo: parse_int(bounds[0])?,
        hi: parse_int(bounds[1])?,
        step: if bounds.len() == 3 {
            parse_int(bounds[2])?
        } else {
            1
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DMXPY: &str = "
      SUBROUTINE DMXPY
      DIMENSION Y(240), X(240), M(240,240)
      DO J = 1, 240
        DO I = 1, 240
          Y(I) = Y(I) + X(J) * M(I,J)
        ENDDO
      ENDDO
      END
";

    #[test]
    fn parses_the_basic_form() {
        let nest = parse(DMXPY).unwrap();
        assert_eq!(nest.name(), "DMXPY");
        assert_eq!(nest.loop_vars(), vec!["J", "I"]);
        assert_eq!(nest.refs().len(), 4);
        assert_eq!(nest.flops_per_iter(), 2);
    }

    #[test]
    fn parses_shared_label_continue() {
        let src = "
C     the paper's intro loop, fixed-form flavour
      DIMENSION A(512), B(512)
      DO 10 J = 1, 512
      DO 10 I = 1, 512
      A(J) = A(J) + B(I)
 10   CONTINUE
      END";
        let nest = parse(src).unwrap();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.body().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let src = "
! free-form comment
C fixed comment
* another
      DIMENSION A(8)
      DO I = 1, 8   ! trailing comment
        A(I) = 2.0
      END DO
      END";
        let nest = parse(src).unwrap();
        assert_eq!(nest.iterations(), 8);
    }

    #[test]
    fn rejects_imperfect_nests() {
        let src = "
      DIMENSION A(8), S(8)
      DO J = 1, 8
        S(J) = 0.0
        DO I = 1, 8
          A(I) = A(I) + 1.0
        ENDDO
      ENDDO
      END";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("imperfect"), "{e}");
    }

    #[test]
    fn rejects_symbolic_bounds_and_bad_statements() {
        let e = parse("      DO I = 1, N\n      ENDDO\n      END").unwrap_err();
        assert!(e.message.contains("integer constant"), "{e}");

        let e = parse("      CALL FOO\n      END").unwrap_err();
        assert!(e.message.contains("unrecognized"), "{e}");
    }

    #[test]
    fn rejects_unbalanced_loops() {
        let e = parse("      DIMENSION A(4)\n      DO I = 1, 4\n      A(I) = 1.0\n      END")
            .unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");

        let e = parse("      ENDDO\n      END").unwrap_err();
        assert!(e.message.contains("without an open DO"), "{e}");
    }

    #[test]
    fn rejects_undeclared_arrays_via_validation() {
        let e = parse("      DO I = 1, 4\n      A(I) = 1.0\n      ENDDO\n      END").unwrap_err();
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn inputs_the_ir_would_refuse_are_parse_errors() {
        // Each of these used to reach a panicking IR constructor or slice.
        for (src, expect) in [
            (
                "      DIMENSION A(8)\n      DO I = 5, 1\n      A(I) = 1.0\n      ENDDO\n      END",
                "empty DO loop",
            ),
            (
                "      DIMENSION A(0)\n      DO I = 1, 4\n      A(I) = 1.0\n      ENDDO\n      END",
                "non-positive extent",
            ),
            ("      DIMENSION A)(4\n      END", "missing ')'"),
        ] {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains(expect), "{src:?}: {e}");
        }
    }

    #[test]
    fn nest_depth_is_bounded() {
        let nest = |depth: usize| {
            let mut src = "      DIMENSION A(4)\n".to_string();
            for k in 0..depth {
                src += &format!("      DO I{k} = 1, 4\n");
            }
            src += "      A(I0) = 1.0\n";
            src += &"      ENDDO\n".repeat(depth);
            src + "      END"
        };
        assert_eq!(
            parse(&nest(MAX_NEST_DEPTH)).unwrap().depth(),
            MAX_NEST_DEPTH
        );
        let e = parse(&nest(MAX_NEST_DEPTH + 1)).unwrap_err();
        assert_eq!(e.line, MAX_NEST_DEPTH + 2, "{e}");
        assert!(e.message.contains("deeper"), "{e}");
    }

    #[test]
    fn non_unit_step_is_rejected() {
        let src = "
      DIMENSION A(8)
      DO I = 1, 8, 2
        A(I) = 1.0
      ENDDO
      END";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("unit-step"), "{e}");
    }
}

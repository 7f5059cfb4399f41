//! Fortran-flavoured pretty printing of loop nests.

use crate::nest::{Lhs, Loop, LoopNest, Stmt};
use std::fmt;

impl fmt::Display for LoopNest {
    /// Renders the nest in the style of the paper's listings:
    ///
    /// ```text
    ///       DO J = 1, 512, 2
    ///         DO I = 1, 256
    ///           A(J) = A(J) + B(I)
    ///           A(J+1) = A(J+1) + B(I)
    ///         ENDDO
    ///       ENDDO
    /// ```
    ///
    /// A prologue prints between the second-innermost header and the
    /// innermost `DO`; an epilogue prints right after the innermost
    /// `ENDDO` — where the statements actually execute.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (depth, l) in self.loops().iter().enumerate() {
            if depth + 1 == self.depth() {
                for stmt in self.prologue() {
                    write_stmt(f, depth, stmt, self.loops())?;
                }
            }
            indent(f, depth)?;
            if l.step() == 1 {
                writeln!(f, "DO {} = {}, {}", l.var(), l.lower(), l.upper())?;
            } else {
                writeln!(
                    f,
                    "DO {} = {}, {}, {}",
                    l.var(),
                    l.lower(),
                    l.upper(),
                    l.step()
                )?;
            }
        }
        for stmt in self.body() {
            write_stmt(f, self.depth(), stmt, self.loops())?;
        }
        for depth in (0..self.depth()).rev() {
            indent(f, depth)?;
            writeln!(f, "ENDDO")?;
            if depth + 1 == self.depth() {
                for stmt in self.epilogue() {
                    write_stmt(f, depth, stmt, self.loops())?;
                }
            }
        }
        Ok(())
    }
}

fn write_stmt(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    stmt: &Stmt,
    loops: &[Loop],
) -> fmt::Result {
    indent(f, depth)?;
    let rhs = stmt.rhs().display(loops);
    match stmt.lhs() {
        Lhs::Array(a) => writeln!(f, "{} = {rhs}", a.display(loops)),
        Lhs::Scalar(s) => writeln!(f, "{s} = {rhs}"),
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth + 1 {
        write!(f, "  ")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::NestBuilder;

    #[test]
    fn prints_nest_in_listing_style() {
        let nest = NestBuilder::new("intro")
            .array("A", &[8])
            .array("B", &[8])
            .loop_("J", 1, 8)
            .loop_("I", 1, 8)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let text = nest.to_string();
        assert!(text.contains("DO J = 1, 8"));
        assert!(text.contains("A(J) = A(J) + B(I)"));
        assert_eq!(text.matches("ENDDO").count(), 2);
    }

    #[test]
    fn prints_step_when_not_unit() {
        let nest = NestBuilder::new("intro")
            .array("A", &[8])
            .loop_("J", 1, 8)
            .stmt("A(J) = 1.0")
            .build();
        let unrolled = crate::transform::unroll_and_jam(&nest, &[0]).unwrap();
        // Unroll by zero is the identity; step remains 1 and is elided.
        assert!(!unrolled.to_string().contains("1, 8,"));
    }
}

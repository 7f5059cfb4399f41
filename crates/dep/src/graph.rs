//! The dependence graph, with the storage accounting of Table 1.

use crate::dist::{lex_positive_realizable, Dist, DistVec};
use crate::tests_impl::pairwise_distance;
use std::fmt;
use ujam_ir::{LoopNest, RefId};

/// Dependence classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Flow (read-after-write).
    True,
    /// Anti (write-after-read).
    Anti,
    /// Output (write-after-write).
    Output,
    /// Input (read-after-read) — needed *only* for memory-reuse analysis;
    /// the paper's contribution is making these unnecessary.
    Input,
}

impl DepKind {
    fn classify(src_is_def: bool, dst_is_def: bool) -> DepKind {
        match (src_is_def, dst_is_def) {
            (true, false) => DepKind::True,
            (false, true) => DepKind::Anti,
            (true, true) => DepKind::Output,
            (false, false) => DepKind::Input,
        }
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        write!(f, "{s}")
    }
}

/// One dependence edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Source reference.
    pub src: RefId,
    /// Sink reference.
    pub dst: RefId,
    /// Dependence class.
    pub kind: DepKind,
    /// Distance vector, outermost loop first.
    pub dist: DistVec,
}

/// Summary statistics over a dependence graph (the quantities of §5.1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphStats {
    /// Total number of dependences.
    pub total: usize,
    /// Number of input dependences.
    pub input: usize,
    /// Bytes to store every edge.
    pub bytes_all: usize,
    /// Bytes to store only the true/anti/output edges (the UGS approach).
    pub bytes_no_input: usize,
}

impl GraphStats {
    /// Fraction of dependences that are input dependences (0 when empty).
    pub fn input_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.input as f64 / self.total as f64
        }
    }
}

/// Walks an expression, reporting every scalar name read.
fn collect_scalars(e: &ujam_ir::Expr, f: &mut impl FnMut(&str)) {
    match e {
        ujam_ir::Expr::Scalar(name) => f(name),
        ujam_ir::Expr::Ref(_) | ujam_ir::Expr::Const(_) => {}
        ujam_ir::Expr::Bin(_, l, r) => {
            collect_scalars(l, f);
            collect_scalars(r, f);
        }
        ujam_ir::Expr::Neg(inner) => collect_scalars(inner, f),
    }
}

/// A loop nest's dependence graph.
///
/// Construction enumerates every same-array reference pair (including
/// read–read pairs and self-pairs), tests them with
/// [`pairwise_distance`], and materialises each realizable direction as an
/// edge with a normalized (lexicographically non-negative) distance vector.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    edges: Vec<DepEdge>,
    depth: usize,
}

impl DepGraph {
    /// Builds the dependence graph of a nest.
    pub fn build(nest: &LoopNest) -> DepGraph {
        let trips: Vec<i64> = nest.loops().iter().map(|l| l.trip_count()).collect();
        let refs = nest.refs();
        let mut edges = Vec::new();

        for i in 0..refs.len() {
            for j in i..refs.len() {
                let (a, b) = (&refs[i], &refs[j]);
                let Some(dist) = pairwise_distance(a.aref, b.aref) else {
                    continue;
                };
                if i == j {
                    // Self pair: a dependence only if a non-zero (hence, by
                    // symmetry, a positive) distance is realizable.
                    let (pos, _zero) = lex_positive_realizable(&dist, &trips);
                    if pos {
                        edges.push(DepEdge {
                            src: a.id,
                            dst: b.id,
                            kind: DepKind::classify(a.is_def, b.is_def),
                            dist: dist.clone(),
                        });
                    }
                    continue;
                }
                // Forward direction (textual order a before b).
                let (pos, zero) = lex_positive_realizable(&dist, &trips);
                if pos || zero {
                    edges.push(DepEdge {
                        src: a.id,
                        dst: b.id,
                        kind: DepKind::classify(a.is_def, b.is_def),
                        dist: dist.clone(),
                    });
                }
                // Reverse direction: realizable only when carried (a
                // loop-independent dependence cannot run against textual
                // order).
                let rev: DistVec = dist.iter().map(|d| d.negate()).collect();
                let (pos, _zero) = lex_positive_realizable(&rev, &trips);
                if pos {
                    edges.push(DepEdge {
                        src: b.id,
                        dst: a.id,
                        kind: DepKind::classify(b.is_def, a.is_def),
                        dist: rev,
                    });
                }
            }
        }
        // Scalar accesses (accumulators like `s = s + X(I)`): every
        // def/use pair of the same name is a dependence whose distance is
        // unconstrained in every loop — the scalar names one storage cell
        // shared by the entire iteration space.  These edges keep the
        // safety analysis from jamming across a scalar recurrence and let
        // the scheduler see the recurrence latency; they use synthetic
        // positions after the statement's array references.
        let all_any: DistVec = vec![Dist::Any; nest.depth()];
        let mut scalar_accesses: Vec<(RefId, String, bool)> = Vec::new();
        for (s, stmt) in nest.body().iter().enumerate() {
            let base = stmt.refs().len();
            let mut ord = 0usize;
            collect_scalars(stmt.rhs(), &mut |name| {
                scalar_accesses.push((
                    RefId {
                        stmt: s,
                        pos: base + ord,
                    },
                    name.to_string(),
                    false,
                ));
                ord += 1;
            });
            if let ujam_ir::Lhs::Scalar(name) = stmt.lhs() {
                scalar_accesses.push((
                    RefId {
                        stmt: s,
                        pos: base + ord,
                    },
                    name.clone(),
                    true,
                ));
            }
        }
        for i in 0..scalar_accesses.len() {
            for j in i..scalar_accesses.len() {
                let (a_id, a_name, a_def) = &scalar_accesses[i];
                let (b_id, b_name, b_def) = &scalar_accesses[j];
                if a_name != b_name || (!*a_def && !*b_def) {
                    continue; // read-read scalar pairs impose nothing
                }
                if i == j {
                    continue; // a lone access is not a dependence
                }
                edges.push(DepEdge {
                    src: *a_id,
                    dst: *b_id,
                    kind: DepKind::classify(*a_def, *b_def),
                    dist: all_any.clone(),
                });
                edges.push(DepEdge {
                    src: *b_id,
                    dst: *a_id,
                    kind: DepKind::classify(*b_def, *a_def),
                    dist: all_any.clone(),
                });
            }
        }

        DepGraph {
            edges,
            depth: nest.depth(),
        }
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges of one class.
    pub fn edges_of(&self, kind: DepKind) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// Number of edges of one class.
    pub fn count(&self, kind: DepKind) -> usize {
        self.edges_of(kind).count()
    }

    /// Total number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the nest has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Bytes needed to store `n` edges of this graph's shape.
    ///
    /// Models a compact serialized edge: two 8-byte reference ids, a 1-byte
    /// kind tag, and a 9-byte (tag + payload) slot per distance component —
    /// the same shape whether or not input dependences are kept, which makes
    /// the Table 1 comparison a pure edge-count ratio scaled to bytes.
    fn bytes_for(&self, n: usize) -> usize {
        n * (8 + 8 + 1 + 9 * self.depth)
    }

    /// The §5.1 statistics for this graph.
    pub fn stats(&self) -> GraphStats {
        let input = self.count(DepKind::Input);
        GraphStats {
            total: self.len(),
            input,
            bytes_all: self.bytes_for(self.len()),
            bytes_no_input: self.bytes_for(self.len() - input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use ujam_ir::NestBuilder;

    fn intro() -> ujam_ir::LoopNest {
        NestBuilder::new("intro")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("J", 1, 64)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build()
    }

    #[test]
    fn intro_loop_has_all_four_classes() {
        let g = DepGraph::build(&intro());
        assert_eq!(g.count(DepKind::True), 1, "def A(J) -> use A(J)");
        assert_eq!(g.count(DepKind::Anti), 1, "use A(J) -> def A(J)");
        assert_eq!(g.count(DepKind::Output), 1, "def A(J) self");
        // Inputs: use A(J) self (carried by I) and B(I) self (carried by J).
        assert_eq!(g.count(DepKind::Input), 2);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn stats_count_input_savings() {
        let g = DepGraph::build(&intro());
        let s = g.stats();
        assert_eq!(s.total, 5);
        assert_eq!(s.input, 2);
        assert!((s.input_fraction() - 0.4).abs() < 1e-12);
        assert!(s.bytes_no_input < s.bytes_all);
        assert_eq!(
            s.bytes_all / s.total,
            s.bytes_no_input / (s.total - s.input)
        );
    }

    #[test]
    fn flow_dependence_distance_is_positive() {
        // A(I) = A(I-1): flow dep with distance 1 carried by I.
        let nest = NestBuilder::new("rec")
            .array("A", &[64])
            .loop_("I", 2, 33)
            .stmt("A(I) = A(I-1) * 0.5")
            .build();
        let g = DepGraph::build(&nest);
        let flow: Vec<_> = g.edges_of(DepKind::True).collect();
        assert_eq!(flow.len(), 1);
        assert_eq!(flow[0].dist, vec![Dist::Exact(1)]);
    }

    #[test]
    fn independent_references_produce_no_edges() {
        let nest = NestBuilder::new("indep")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 1, 32)
            .stmt("A(I) = B(I) + 1.0")
            .build();
        let g = DepGraph::build(&nest);
        // A(I) def self: distance 0 only -> no edge.  B(I) use self: same.
        // A vs B: different arrays.
        assert!(g.is_empty());
    }

    #[test]
    fn group_input_dependence_between_stencil_reads() {
        let nest = NestBuilder::new("st")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 2, 33)
            .stmt("B(I) = A(I) + A(I-1)")
            .build();
        let g = DepGraph::build(&nest);
        // A(I) at iter i is re-read by A(I-1) at iter i+1.
        let inputs: Vec<_> = g.edges_of(DepKind::Input).collect();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].dist, vec![Dist::Exact(1)]);
    }

    #[test]
    fn loop_independent_edge_respects_textual_order() {
        let nest = NestBuilder::new("li")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 1, 32)
            .stmt("A(I) = B(I) * 2.0")
            .stmt("B(I) = A(I) + 1.0")
            .build();
        let g = DepGraph::build(&nest);
        // A: def (stmt0) then use (stmt1): loop-independent flow dep.
        let flows: Vec<_> = g.edges_of(DepKind::True).collect();
        assert!(flows
            .iter()
            .any(|e| e.src.stmt == 0 && e.dst.stmt == 1 && e.dist == vec![Dist::Exact(0)]));
        // B: use (stmt0) then def (stmt1): loop-independent anti dep.
        assert!(g
            .edges_of(DepKind::Anti)
            .any(|e| e.src.stmt == 0 && e.dst.stmt == 1));
    }

    #[test]
    fn distances_out_of_bounds_are_dropped() {
        // Offset 40 exceeds the trip count 8: no dependence.
        let nest = NestBuilder::new("oob")
            .array("A", &[128])
            .loop_("I", 41, 48)
            .stmt("A(I) = A(I-40) + 1.0")
            .build();
        let g = DepGraph::build(&nest);
        assert_eq!(g.count(DepKind::True), 0);
    }
}

#[cfg(test)]
mod scalar_dep_tests {
    use super::*;
    use crate::safety::safe_unroll_bounds;
    use ujam_ir::NestBuilder;

    #[test]
    fn scalar_accumulator_blocks_jamming() {
        // A dot product: jamming J would interleave updates of `s` across
        // J-groups — exact floating-point semantics change.
        let nest = NestBuilder::new("dot")
            .array("X", &[66, 66])
            .array("Y", &[66, 66])
            .loop_("J", 1, 64)
            .loop_("I", 1, 64)
            .stmt("s = s + X(I,J) * Y(I,J)")
            .build();
        let g = DepGraph::build(&nest);
        assert!(g.edges().iter().any(|e| e.kind == DepKind::True));
        assert_eq!(safe_unroll_bounds(&nest, &g)[0], 0);
    }

    #[test]
    fn invariant_scalar_reads_impose_nothing() {
        // shal-style weights: scalar uses without defs are free.
        let nest = NestBuilder::new("w")
            .array("A", &[66, 66])
            .array("B", &[66, 66])
            .loop_("J", 1, 64)
            .loop_("I", 1, 64)
            .stmt("A(I,J) = tdts8 * B(I,J)")
            .build();
        let g = DepGraph::build(&nest);
        let scalar_edges = g
            .edges()
            .iter()
            .filter(|e| e.src.pos >= 3 || e.dst.pos >= 3)
            .count();
        assert_eq!(scalar_edges, 0);
        assert!(safe_unroll_bounds(&nest, &g)[0] > 0);
    }

    #[test]
    fn scalar_chain_between_statements_is_tracked() {
        let nest = NestBuilder::new("chain")
            .array("A", &[66])
            .array("B", &[66])
            .loop_("I", 1, 64)
            .stmt("t = A(I) * 2.0")
            .stmt("B(I) = t + 1.0")
            .build();
        let g = DepGraph::build(&nest);
        // def t (stmt 0) -> use t (stmt 1): a flow dependence.
        assert!(g
            .edges_of(DepKind::True)
            .any(|e| e.src.stmt == 0 && e.dst.stmt == 1));
    }
}

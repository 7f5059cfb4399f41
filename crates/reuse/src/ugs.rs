//! Uniformly generated sets (Gannon–Jalby–Gallivan, Definition 1).

use std::collections::BTreeMap;
use ujam_ir::{LoopNest, RefId};
use ujam_linalg::Mat;

/// One reference inside a uniformly generated set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UgsMember {
    /// The reference's identity in the nest.
    pub id: RefId,
    /// Its constant offset vector `c` (the references share `H`).
    pub c: Vec<i64>,
    /// `true` for stores.
    pub is_def: bool,
}

/// A maximal set of references to one array sharing an access matrix `H`:
/// every pair is *uniformly generated* — `f(i) = H·i + c₁`,
/// `g(i) = H·i + c₂`.
///
/// Data reuse only exists inside such sets, which is what lets the analysis
/// discard input dependences: group reuse is recovered from the `c` vectors
/// by linear algebra instead of from read–read dependence edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UgsSet {
    array: String,
    h: Mat,
    members: Vec<UgsMember>,
}

impl UgsSet {
    /// Partitions every reference of a nest into uniformly generated sets.
    ///
    /// Sets are returned in a deterministic order (by array name, then by
    /// flattened `H`); members keep execution order.
    ///
    /// # Example
    ///
    /// ```
    /// use ujam_ir::NestBuilder;
    /// use ujam_reuse::UgsSet;
    /// let nest = NestBuilder::new("two")
    ///     .array("A", &[64])
    ///     .loop_("I", 1, 32)
    ///     .stmt("A(I) = A(I+1) + A(2I)")
    ///     .build();
    /// let sets = UgsSet::partition(&nest);
    /// // A(I)/A(I+1) share H=[1]; A(2I) has H=[2]: two sets.
    /// assert_eq!(sets.len(), 2);
    /// assert_eq!(sets.iter().map(|s| s.members().len()).sum::<usize>(), 3);
    /// ```
    pub fn partition(nest: &LoopNest) -> Vec<UgsSet> {
        let mut map: BTreeMap<(&str, &[i64]), UgsSet> = BTreeMap::new();
        for r in nest.refs() {
            let (h, c) = r.aref.access_matrix();
            map.entry((r.aref.array(), h.as_slice()))
                .or_insert_with(|| UgsSet {
                    array: r.aref.array().to_string(),
                    h: h.clone(),
                    members: Vec::new(),
                })
                .members
                .push(UgsMember {
                    id: r.id,
                    c: c.to_vec(),
                    is_def: r.is_def,
                });
        }
        map.into_values().collect()
    }

    /// The array every member references.
    pub fn array(&self) -> &str {
        &self.array
    }

    /// The shared access matrix (`rank × depth`).
    pub fn h(&self) -> &Mat {
        &self.h
    }

    /// The member references.
    pub fn members(&self) -> &[UgsMember] {
        &self.members
    }

    /// Members sorted lexicographically by `c` (ties by execution order) —
    /// the leader order used by the paper's table algorithms (Figure 2).
    pub fn members_lex(&self) -> Vec<&UgsMember> {
        let mut v: Vec<&UgsMember> = self.members.iter().collect();
        v.sort_by(|a, b| a.c.cmp(&b.c).then(a.id.cmp(&b.id)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;

    #[test]
    fn partition_separates_arrays_and_matrices() {
        let nest = NestBuilder::new("p")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("A(I,J) = A(I+1,J) + B(J,I) + B(J,I+1) + A(I,2J)")
            .build();
        let sets = UgsSet::partition(&nest);
        // A with H=identity (A(I,J), A(I+1,J)); A with the 2J access;
        // B with transposed H.
        assert_eq!(sets.len(), 3);
        let a_id = sets
            .iter()
            .find(|s| s.array() == "A" && s.members().len() == 2)
            .expect("identity-H A set");
        // Members keep execution order: the RHS use A(I+1,J) precedes the
        // LHS def A(I,J).
        assert_eq!(a_id.members()[0].c, vec![1, 0]);
        assert_eq!(a_id.members()[1].c, vec![0, 0]);
        // Exactly one member is a def (the LHS A(I,J)).
        assert_eq!(a_id.members().iter().filter(|m| m.is_def).count(), 1);
    }

    #[test]
    fn lex_order_sorts_by_constant_vector() {
        let nest = NestBuilder::new("lex")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("B(I,J) = A(I,J) + A(I-2,J) + A(I-1,J)")
            .build();
        let sets = UgsSet::partition(&nest);
        let a = sets.iter().find(|s| s.array() == "A").expect("A set");
        let lex: Vec<i64> = a.members_lex().iter().map(|m| m.c[0]).collect();
        assert_eq!(lex, vec![-2, -1, 0]);
    }

    #[test]
    fn same_subscript_use_and_def_share_a_set() {
        let nest = NestBuilder::new("acc")
            .array("A", &[64])
            .loop_("I", 1, 16)
            .stmt("A(I) = A(I) * 1.5")
            .build();
        let sets = UgsSet::partition(&nest);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].members().len(), 2);
    }
}

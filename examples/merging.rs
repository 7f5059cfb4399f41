//! Figure 1 walkthrough: how copies of group-temporal sets merge as the
//! unroll amount grows, and how the precomputed table captures it.
//!
//! Run with `cargo run --example merging`.

use ujam::core::{gts_table, UnrollSpace};
use ujam::ir::transform::unroll_and_jam;
use ujam::ir::NestBuilder;
use ujam::reuse::{group_temporal_sets, Localized, UgsSet};

fn main() {
    // Two references two outer iterations apart — the Figure 1 situation
    // transported to an unrollable outer loop: B(I,J) and B(I,J+2).
    let nest = NestBuilder::new("fig1")
        .array("A", &[66, 70])
        .array("B", &[66, 70])
        .loop_("J", 1, 60)
        .loop_("I", 1, 60)
        .stmt("A(I,J) = B(I,J) + B(I,J+2)")
        .build();
    println!("loop:\n{nest}");

    let b = UgsSet::partition(&nest)
        .into_iter()
        .find(|s| s.array() == "B")
        .expect("B set");
    println!(
        "uniformly generated set on B: H =\n{}\nleaders (c vectors): {:?}",
        b.h(),
        b.members_lex()
            .iter()
            .map(|m| m.c.clone())
            .collect::<Vec<_>>()
    );

    let space = UnrollSpace::new(2, &[0], 5);
    let table = gts_table(&b, &space);
    println!("\nGTS table (new groups contributed per copy offset):");
    for u in 0..=5u32 {
        let earlier = u.checked_sub(1).map_or(0, |v| table.prefix_sum(&[v]));
        println!("  offset [{u}]: {}", table.prefix_sum(&[u]) - earlier);
    }

    println!("\nGTS count after unrolling J by u (prefix sums):");
    for u in 0..=5u32 {
        let predicted = table.prefix_sum(&[u]);
        // Verify against the actually-unrolled loop.
        let unrolled = unroll_and_jam(&nest, &[u, 0]).expect("legal");
        let l = Localized::innermost(2);
        let actual: usize = UgsSet::partition(&unrolled)
            .iter()
            .filter(|s| s.array() == "B")
            .map(|s| group_temporal_sets(s, &l).len())
            .sum();
        println!("  u = {u}: table says {predicted}, unrolled loop has {actual}");
        assert_eq!(predicted, actual as i64);
    }
    println!("\nFrom u = 2 on, each new copy of B(I,J) lands on an existing");
    println!("copy of B(I,J+2): one new group per step instead of two —");
    println!("exactly the merge the solve H·x = c2 − c1 predicts at x = 2.");
}

//! Micro-benchmarks for the design choices DESIGN.md §5 calls out:
//!
//! * region algorithm vs the exact `Sum` tabulation (one sweep over the
//!   unroll box) for group-spatial tables (the fallback costs more —
//!   measure how much);
//! * signature-based vs greedy stream partitioning in the analytic
//!   evaluator (the per-offset oracle the tables are tested against);
//! * the dependence graph with vs without input-dependence pairs (the
//!   processing-time half of the Table 1 claim).
//!
//! Plain-`Instant` harness (`ujam_bench::timing`): the offline registry
//! rules out criterion.  Run with `cargo bench --bench ablations`.

use ujam_bench::timing::bench;
use ujam_core::{gss_table, streams::replacement_counts_at, UnrollSpace};
use ujam_dep::DepGraph;
use ujam_ir::NestBuilder;
use ujam_kernels::kernel;
use ujam_reuse::UgsSet;

fn main() {
    gss_construction();
    stream_partition();
    dep_graph_cost();
}

/// jacobi's A set never touches the contiguous row with an unrolled loop:
/// the region algorithm applies.  A row-indexed variant forces the exact
/// fallback.
fn gss_construction() {
    println!("gss_table_construction");
    let region_nest = kernel("jacobi").expect("known kernel").nest();
    let chain_nest = NestBuilder::new("chain")
        .array("A", &[260, 260])
        .array("B", &[260, 260])
        .loop_("I", 1, 240) // I (contiguous dim) outer: unrolling chains
        .loop_("J", 1, 240)
        .stmt("B(I,J) = A(I,J) + A(I+3,J)")
        .build();
    for bound in [4u32, 8] {
        let region_set = UgsSet::partition(&region_nest)
            .into_iter()
            .find(|s| s.array() == "A")
            .expect("A set");
        let region_space = UnrollSpace::new(region_nest.depth(), &[0], bound);
        bench(&format!("region/{bound}"), || {
            gss_table(&region_set, &region_space, 4)
        });
        let chain_set = UgsSet::partition(&chain_nest)
            .into_iter()
            .find(|s| s.array() == "A")
            .expect("A set");
        let chain_space = UnrollSpace::new(chain_nest.depth(), &[0], bound);
        bench(&format!("exact_fallback/{bound}"), || {
            gss_table(&chain_set, &chain_space, 4)
        });
    }
}

fn stream_partition() {
    // A wide body: many copies to partition.
    println!("analytic_counts");
    let nest = kernel("shal").expect("known kernel").nest();
    let space = UnrollSpace::new(2, &[0], 8);
    for u in [0u32, 4, 8] {
        bench(&format!("signatures/{u}"), || {
            replacement_counts_at(&nest, &space, &[u])
        });
    }
}

fn dep_graph_cost() {
    // The processing-time half of Table 1: building the graph is
    // quadratic in references, and read-read pairs dominate.
    println!("dep_graph_build");
    for reads in [2usize, 6, 10] {
        let mut rhs = String::from("0.0");
        for k in 0..reads {
            rhs.push_str(&format!(" + A(I+{k}, J)"));
        }
        let nest = NestBuilder::new("reads")
            .array("A", &[260, 260])
            .array("B", &[260, 260])
            .loop_("J", 1, 240)
            .loop_("I", 1, 240)
            .stmt(&format!("B(I,J) = {rhs}"))
            .build();
        bench(&format!("reads/{reads}"), || DepGraph::build(&nest));
    }
}

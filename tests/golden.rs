//! Golden snapshots of the deterministic experiment quantities.
//!
//! These pin the *exact* numbers the seeded corpus produces, so any change
//! to the dependence tester, the corpus generator, or the byte-accounting
//! shows up as a reviewable diff here rather than as silent drift in
//! EXPERIMENTS.md.  (The full 1187-routine run is the release binary's
//! job; 400 routines keep this test fast while covering every family.)

use ujam::core::{optimize, tables::CostTables, UnrollSpace};
use ujam::kernels::kernel;
use ujam::machine::MachineModel;

#[test]
fn table1_statistics_are_pinned() {
    // Re-pinned when the corpus generator moved from the unfetchable
    // `rand` crate to the in-tree `ujam-rng` SplitMix64 (the offline
    // registry cannot serve external crates): a different PRNG yields a
    // different — still fixed and fully deterministic — synthetic corpus.
    // The Table 1 *shape* is unchanged: input dependences still dominate
    // (~89% of all dependences) and the byte savings still hold (~89%).
    let r = ujam_bench_table1();
    assert_eq!(r.0, 35024, "total dependences");
    assert_eq!(r.1, 31331, "input dependences");
    assert_eq!(r.2, 400, "routines with dependences");
    assert_eq!(r.3, 1_246_612, "bytes with input deps");
    assert_eq!(r.4, 139_632, "bytes without input deps");
    assert_eq!(
        r.5,
        vec![17, 28, 20, 28, 60, 59, 23, 29, 136],
        "histogram bands"
    );
}

/// Local shim: the bench crate is not a dependency of the facade, so the
/// computation is repeated here from the same public APIs it uses.
fn ujam_bench_table1() -> (usize, usize, usize, usize, usize, Vec<usize>) {
    use ujam::dep::{DepGraph, DepKind};
    let mut routines: Vec<Vec<ujam::ir::LoopNest>> = ujam::kernels::kernels()
        .iter()
        .map(|k| vec![k.nest()])
        .collect();
    routines.extend(ujam::kernels::corpus_subroutines(
        1997,
        400 - routines.len(),
    ));
    let bands = [
        (0.0, 0.0),
        (0.01, 32.99),
        (33.0, 39.99),
        (40.0, 49.99),
        (50.0, 59.99),
        (60.0, 69.99),
        (70.0, 79.99),
        (80.0, 89.99),
        (90.0, 100.0),
    ];
    let (mut total, mut input, mut with, mut b_all, mut b_no) = (0, 0, 0, 0, 0);
    let mut hist = vec![0usize; bands.len()];
    for routine in &routines {
        let (mut deps, mut inp, mut ba, mut bn) = (0usize, 0usize, 0usize, 0usize);
        for nest in routine {
            let g = DepGraph::build(nest);
            let s = g.stats();
            deps += s.total;
            inp += g.count(DepKind::Input);
            ba += s.bytes_all;
            bn += s.bytes_no_input;
        }
        if deps == 0 {
            continue;
        }
        total += deps;
        input += inp;
        with += 1;
        b_all += ba;
        b_no += bn;
        let pct = 100.0 * inp as f64 / deps as f64;
        let band = bands
            .iter()
            .position(|&(lo, hi)| {
                if lo == 0.0 && hi == 0.0 {
                    inp == 0
                } else {
                    pct >= lo && pct <= hi
                }
            })
            .expect("bands cover range");
        hist[band] += 1;
    }
    (total, input, with, b_all, b_no, hist)
}

/// The optimizer's decisions on the kernel suite are pinned per machine:
/// any model change that shifts a chosen unroll vector must update this
/// table (and EXPERIMENTS.md) deliberately.
#[test]
fn chosen_unroll_vectors_are_pinned_on_alpha() {
    let machine = MachineModel::dec_alpha();
    let expect: &[(&str, &[u32])] = &[
        ("jacobi", &[7, 0]),
        ("afold", &[5, 0]),
        ("dmxpy0", &[7, 0]),
        ("dmxpy1", &[7, 0]),
        ("mmjik", &[3, 3, 0]),
        ("mmjki", &[2, 3, 0]),
        ("vpenta.7", &[7, 0]),
        ("sor", &[5, 0]),
        ("shal", &[4, 0]),
        ("collc.2", &[0, 0]),
    ];
    for (name, unroll) in expect {
        let plan =
            optimize(&kernel(name).expect("known kernel").nest(), &machine).expect("valid nest");
        assert_eq!(plan.unroll, *unroll, "{name}");
    }
}

/// Representative table values on the intro loop (spot-pinned).
#[test]
fn intro_loop_tables_are_pinned() {
    let nest = kernel("afold").expect("known").nest();
    let space = UnrollSpace::new(2, &[0], 4);
    let ct = CostTables::build(&nest, &space, 4);
    let rows: Vec<(usize, i64, i64, String, i64)> = space
        .offsets()
        .map(|u| {
            (
                ct.flops(&u),
                ct.loads(&u),
                ct.stores(&u),
                format!("{:.3}", ct.cache_lines(&u)),
                ct.registers(&u),
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            (2, 2, 0, "0.500".into(), 1),
            (4, 2, 0, "0.500".into(), 4),
            (6, 2, 0, "0.500".into(), 5),
            (8, 2, 0, "0.500".into(), 6),
            (10, 2, 0, "0.500".into(), 7),
        ]
    );
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One hash over the `Display` text of every nest, and one over the
/// `emit → parse → Display` text (or the parse error) of every nest.
fn text_hashes(nests: impl IntoIterator<Item = ujam::ir::LoopNest>) -> (u64, u64) {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut shown, mut round) = (BASIS, BASIS);
    for nest in nests {
        shown = fnv1a(shown, nest.to_string().as_bytes());
        shown = fnv1a(shown, b"\0");
        let back = match ujam::fortran::parse(&ujam::fortran::emit(&nest)) {
            Ok(back) => back.to_string(),
            Err(e) => format!("error: {e}"),
        };
        round = fnv1a(round, back.as_bytes());
        round = fnv1a(round, b"\0");
    }
    (shown, round)
}

/// The rendered text of every kernel and corpus nest, and of its Fortran
/// round trip, is pinned: the IR's subscript representation may change,
/// the text it prints (and the daemon keys decisions on) may not.
#[test]
fn nest_texts_and_fortran_round_trips_are_pinned() {
    use ujam::kernels::{corpus, corpus_deep, corpus_routine, deep_kernels, kernels};
    let sets: [(&str, Vec<ujam::ir::LoopNest>, (u64, u64)); 6] = [
        (
            "kernels",
            kernels().iter().map(|k| k.nest()).collect(),
            (0x3ab6a49f74bbb4fa, 0x3ab6a49f74bbb4fa),
        ),
        (
            "deep kernels",
            deep_kernels().iter().map(|k| k.nest()).collect(),
            (0x9244661d3d10512d, 0x9244661d3d10512d),
        ),
        (
            "corpus(1997, 200)",
            corpus(1997, 200),
            (0x8f3190f07c03efcb, 0x8f3190f07c03efcb),
        ),
        (
            "corpus_deep(1997, 40)",
            corpus_deep(1997, 40),
            (0xa6d7d9308888cb46, 0xa6d7d9308888cb46),
        ),
        (
            "corpus_routine(1, ..1024)",
            (0..1024).map(|i| corpus_routine(1, i)).collect(),
            (0xb5991650997d0e49, 0xb5991650997d0e49),
        ),
        (
            "corpus_routine(3, ..1024)",
            (0..1024).map(|i| corpus_routine(3, i)).collect(),
            (0x613669c8243acb34, 0x613669c8243acb34),
        ),
    ];
    let mut wrong = Vec::new();
    for (name, nests, want) in sets {
        let got = text_hashes(nests);
        if got != want {
            wrong.push(format!("{name}: ({:#018x}, {:#018x})", got.0, got.1));
        }
    }
    assert!(wrong.is_empty(), "text hashes moved:\n{}", wrong.join("\n"));
}

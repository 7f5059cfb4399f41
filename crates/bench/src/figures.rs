//! Figures 8 & 9: normalized execution time of the 19 test loops.

use ujam_core::{optimize_batch_traced_with_workers, BalanceModel};
use ujam_kernels::kernels;
use ujam_machine::MachineModel;
use ujam_sim::simulate;

/// One bar group of Figure 8/9: a kernel's execution time under the three
/// arms the paper plots.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Table 2 loop number.
    pub num: usize,
    /// Kernel name.
    pub name: &'static str,
    /// Simulated cycles of the original loop.
    pub original: f64,
    /// Cycles after unroll-and-jam guided by the *all-hits* model
    /// (the paper's "No Cache" series, Carr & Kennedy '94).
    pub no_cache: f64,
    /// Cycles after unroll-and-jam guided by the §3.2 cache-aware model
    /// (the paper's "Cache" series).
    pub cache: f64,
    /// Unroll vector the all-hits model chose.
    pub unroll_no_cache: Vec<u32>,
    /// Unroll vector the cache-aware model chose.
    pub unroll_cache: Vec<u32>,
}

impl FigureRow {
    /// `no_cache / original` — the normalized bar the paper plots.
    pub fn norm_no_cache(&self) -> f64 {
        self.no_cache / self.original
    }

    /// `cache / original`.
    pub fn norm_cache(&self) -> f64 {
        self.cache / self.original
    }
}

/// Reproduces one figure: optimize every Table 2 loop under both cost
/// models and simulate all three variants on `machine`.
pub fn figure(machine: &MachineModel) -> Vec<FigureRow> {
    let ks = kernels();
    let nests: Vec<_> = ks.iter().map(|k| k.nest()).collect();
    // Both experimental arms go through the batch driver: one pipeline
    // context per nest, fanned out across scoped threads.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch = |model| {
        optimize_batch_traced_with_workers(&nests, machine, model, workers, ujam_trace::null_sink())
    };
    let no_cache_plans = batch(BalanceModel::AllHits);
    let cache_plans = batch(BalanceModel::CacheAware);
    ks.iter()
        .zip(&nests)
        .zip(no_cache_plans)
        .zip(cache_plans)
        .map(|(((k, nest), nc), c)| {
            let nc = nc.expect("Table 2 kernels are valid");
            let c = c.expect("Table 2 kernels are valid");
            let original = simulate(nest, machine);
            let no_cache = simulate(&nc.nest, machine);
            let cache = simulate(&c.nest, machine);
            FigureRow {
                num: k.num,
                name: k.name,
                original: original.cycles,
                no_cache: no_cache.cycles,
                cache: cache.cycles,
                unroll_no_cache: nc.unroll,
                unroll_cache: c.unroll,
            }
        })
        .collect()
}

/// Renders the figure as the text table the binaries print: one row per
/// loop, normalized execution times, chosen unroll vectors.
pub fn render(machine: &MachineModel, rows: &[FigureRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Normalized execution time on {} (original = 1.00)",
        machine.name()
    );
    let _ = writeln!(
        out,
        "{:>3} {:10} {:>9} {:>9} {:>9}  {:14} {:14}",
        "#", "loop", "orig", "no-cache", "cache", "u(no-cache)", "u(cache)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>3} {:10} {:>9.2} {:>9.2} {:>9.2}  {:14} {:14}",
            r.num,
            r.name,
            1.0,
            r.norm_no_cache(),
            r.norm_cache(),
            format!("{:?}", r.unroll_no_cache),
            format!("{:?}", r.unroll_cache),
        );
    }
    let gmean_nc = geomean(rows.iter().map(|r| r.norm_no_cache()));
    let gmean_c = geomean(rows.iter().map(|r| r.norm_cache()));
    let _ = writeln!(
        out,
        "geometric mean: no-cache {gmean_nc:.3}, cache {gmean_c:.3}"
    );
    out
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_has_the_paper_shape_on_alpha() {
        let rows = figure(&MachineModel::dec_alpha());
        assert_eq!(rows.len(), 19);
        // Transformed loops never lose by much, and most win.
        let wins = rows.iter().filter(|r| r.norm_cache() < 0.999).count();
        assert!(wins >= 10, "only {wins}/19 loops improved");
        for r in &rows {
            assert!(
                r.norm_cache() < 1.15,
                "{} regressed: {:.2}",
                r.name,
                r.norm_cache()
            );
        }
        // The geometric mean shows a clear overall speedup.
        let g = geomean(rows.iter().map(|r| r.norm_cache()));
        assert!(g < 0.9, "geometric mean {g:.3} not a speedup");
    }
}

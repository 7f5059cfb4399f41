//! Machine descriptions for loop-balance optimization.
//!
//! §3.1 of the paper defines *machine balance* `β_M = M_rate / F_rate`: the
//! peak rate at which the machine moves words from memory relative to the
//! peak rate at which it retires floating-point operations.  A loop whose
//! own balance `β_L` exceeds `β_M` starves the floating-point pipes; the
//! optimizer's goal is `β_L(u) ≈ β_M`.
//!
//! A [`MachineModel`] carries the handful of parameters the balance model
//! and the `ujam-sim` cycle estimator need: issue rates, the FP register
//! file, cache geometry, miss cost, and prefetch-issue bandwidth.  Two
//! presets stand in for the paper's evaluation hardware:
//! [`MachineModel::dec_alpha`] (21064-class) and
//! [`MachineModel::hp_parisc`] (PA-7100-class).  The presets encode the
//! architectural *shape* (balances of 1.0 and 0.5, small direct-mapped
//! versus large cache), not cycle-accurate 1990s data sheets.
//!
//! # Example
//!
//! ```
//! use ujam_machine::MachineModel;
//! let alpha = MachineModel::dec_alpha();
//! assert_eq!(alpha.balance(), 1.0);
//! let wide = MachineModel::builder("wide-fp")
//!     .rates(1.0, 4.0)
//!     .registers(128)
//!     .build();
//! assert_eq!(wide.balance(), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A target machine for balance optimization and simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineModel {
    name: String,
    mem_rate: f64,
    flop_rate: f64,
    issue_width: u32,
    fp_registers: u32,
    cache_bytes: usize,
    line_bytes: usize,
    associativity: usize,
    miss_penalty: f64,
    hit_cost: f64,
    prefetch_bandwidth: f64,
    fp_latency: u32,
}

impl MachineModel {
    /// Starts a builder with sane scalar-RISC defaults.
    pub fn builder(name: &str) -> MachineModelBuilder {
        MachineModelBuilder {
            model: MachineModel {
                name: name.to_string(),
                mem_rate: 1.0,
                flop_rate: 1.0,
                issue_width: 2,
                fp_registers: 32,
                cache_bytes: 8 * 1024,
                line_bytes: 32,
                associativity: 1,
                miss_penalty: 20.0,
                hit_cost: 1.0,
                prefetch_bandwidth: 0.0,
                fp_latency: 3,
            },
        }
    }

    /// A DEC Alpha 21064-class model: dual issue (one load/store pipe, one
    /// FP pipe), `β_M = 1`, 32 FP registers, a small direct-mapped 8 KiB
    /// data cache with 32-byte lines and a heavy miss.
    pub fn dec_alpha() -> MachineModel {
        MachineModel::builder("DEC Alpha")
            .rates(1.0, 1.0)
            .issue_width(2)
            .registers(32)
            .cache(8 * 1024, 32, 1)
            .miss(20.0, 1.0)
            .fp_latency(6)
            .build()
    }

    /// An HP PA-RISC 7100-class model: the fused multiply-add pipe retires
    /// two flops per cycle against one memory access (`β_M = 0.5`), with a
    /// large off-chip cache.
    pub fn hp_parisc() -> MachineModel {
        MachineModel::builder("HP PA-RISC")
            .rates(1.0, 2.0)
            .issue_width(2)
            .registers(32)
            .cache(256 * 1024, 32, 1)
            .miss(15.0, 1.0)
            .fp_latency(2)
            .build()
    }

    /// A forward-looking model with software prefetching and a large
    /// register file (the paper's "future work" target).
    pub fn prefetching_risc() -> MachineModel {
        MachineModel::builder("prefetching RISC")
            .rates(2.0, 2.0)
            .issue_width(4)
            .registers(64)
            .cache(32 * 1024, 64, 2)
            .miss(30.0, 1.0)
            .prefetch(1.0)
            .fp_latency(4)
            .build()
    }

    /// The preset a CLI flag or request field names: `alpha`
    /// ([`MachineModel::dec_alpha`]), `parisc`
    /// ([`MachineModel::hp_parisc`]) or `prefetch`
    /// ([`MachineModel::prefetching_risc`]).
    pub fn by_name(name: &str) -> Option<MachineModel> {
        match name {
            "alpha" => Some(MachineModel::dec_alpha()),
            "parisc" => Some(MachineModel::hp_parisc()),
            "prefetch" => Some(MachineModel::prefetching_risc()),
            _ => None,
        }
    }

    /// The machine's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Machine balance `β_M = M_rate / F_rate` (§3.1).
    pub fn balance(&self) -> f64 {
        self.mem_rate / self.flop_rate
    }

    /// Peak memory operations per cycle.
    pub fn mem_rate(&self) -> f64 {
        self.mem_rate
    }

    /// Peak floating-point operations per cycle.
    pub fn flop_rate(&self) -> f64 {
        self.flop_rate
    }

    /// Total instructions issued per cycle.
    pub fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// Architected floating-point registers.
    pub fn fp_registers(&self) -> u32 {
        self.fp_registers
    }

    /// Registers the scalar-replacement planner may consume: a few are
    /// reserved for expression evaluation and address arithmetic.
    pub fn registers_for_replacement(&self) -> u32 {
        self.fp_registers.saturating_sub(6)
    }

    /// Data-cache capacity in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Cache line size in 8-byte double-precision elements — the `C` of
    /// Equation 1.
    pub fn line_elems(&self) -> i64 {
        (self.line_bytes / 8).max(1) as i64
    }

    /// Cache associativity (1 = direct mapped).
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Cache-miss penalty in cycles (`C_m`).
    pub fn miss_penalty(&self) -> f64 {
        self.miss_penalty
    }

    /// Cache-hit cost in cycles (`C_h`).
    pub fn hit_cost(&self) -> f64 {
        self.hit_cost
    }

    /// Miss-to-hit cost ratio `C_m / C_h` charged per unserviced prefetch
    /// in the balance formula (§3.2).
    pub fn miss_ratio(&self) -> f64 {
        self.miss_penalty / self.hit_cost
    }

    /// Prefetches issuable per cycle (`b`); `0` means no software prefetch.
    pub fn prefetch_bandwidth(&self) -> f64 {
        self.prefetch_bandwidth
    }

    /// Floating-point pipeline latency in cycles.
    pub fn fp_latency(&self) -> u32 {
        self.fp_latency
    }
}

/// Builder for [`MachineModel`] (see [`MachineModel::builder`]).
#[derive(Clone, Debug)]
pub struct MachineModelBuilder {
    model: MachineModel,
}

impl MachineModelBuilder {
    /// Sets peak memory and floating-point issue rates per cycle.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are positive.
    pub fn rates(mut self, mem: f64, flop: f64) -> Self {
        assert!(mem > 0.0 && flop > 0.0, "rates must be positive");
        self.model.mem_rate = mem;
        self.model.flop_rate = flop;
        self
    }

    /// Sets total issue width.
    pub fn issue_width(mut self, w: u32) -> Self {
        assert!(w >= 1, "issue width must be at least 1");
        self.model.issue_width = w;
        self
    }

    /// Sets the FP register count.
    pub fn registers(mut self, r: u32) -> Self {
        self.model.fp_registers = r;
        self
    }

    /// Sets cache capacity, line size (bytes) and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of the line, associativity 0).
    pub fn cache(mut self, bytes: usize, line: usize, ways: usize) -> Self {
        assert!(bytes > 0 && line > 0 && ways > 0, "degenerate cache");
        assert!(
            bytes.is_multiple_of(line * ways),
            "capacity not divisible by way size"
        );
        self.model.cache_bytes = bytes;
        self.model.line_bytes = line;
        self.model.associativity = ways;
        self
    }

    /// Sets miss penalty and hit cost in cycles.
    pub fn miss(mut self, penalty: f64, hit: f64) -> Self {
        assert!(penalty >= hit && hit > 0.0, "miss must cost at least a hit");
        self.model.miss_penalty = penalty;
        self.model.hit_cost = hit;
        self
    }

    /// Sets prefetch-issue bandwidth (prefetches per cycle).
    pub fn prefetch(mut self, b: f64) -> Self {
        assert!(b >= 0.0, "negative prefetch bandwidth");
        self.model.prefetch_bandwidth = b;
        self
    }

    /// Sets floating-point latency in cycles.
    pub fn fp_latency(mut self, l: u32) -> Self {
        self.model.fp_latency = l.max(1);
        self
    }

    /// Finishes the model.
    pub fn build(self) -> MachineModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_balances_have_the_paper_shape() {
        // The Alpha needs one memory op per flop; the PA-RISC half that.
        assert_eq!(MachineModel::dec_alpha().balance(), 1.0);
        assert_eq!(MachineModel::hp_parisc().balance(), 0.5);
        assert!(MachineModel::hp_parisc().cache_bytes() > MachineModel::dec_alpha().cache_bytes());
    }

    #[test]
    fn line_elems_is_in_doubles() {
        assert_eq!(MachineModel::dec_alpha().line_elems(), 4);
        let m = MachineModel::builder("x").cache(1024, 64, 1).build();
        assert_eq!(m.line_elems(), 8);
    }

    #[test]
    fn replacement_registers_reserve_scratch() {
        let m = MachineModel::dec_alpha();
        assert_eq!(m.registers_for_replacement(), 26);
        let tiny = MachineModel::builder("tiny").registers(4).build();
        assert_eq!(tiny.registers_for_replacement(), 0);
    }

    #[test]
    fn builder_round_trip() {
        let m = MachineModel::builder("m")
            .rates(2.0, 4.0)
            .issue_width(4)
            .registers(64)
            .cache(16 * 1024, 32, 2)
            .miss(25.0, 2.0)
            .prefetch(0.5)
            .fp_latency(5)
            .build();
        assert_eq!(m.balance(), 0.5);
        assert_eq!(m.miss_ratio(), 12.5);
        assert_eq!(m.prefetch_bandwidth(), 0.5);
        assert_eq!(m.fp_latency(), 5);
        assert_eq!(m.associativity(), 2);
        assert_eq!(m.name(), "m");
    }

    #[test]
    #[should_panic(expected = "degenerate cache")]
    fn degenerate_cache_rejected() {
        let _ = MachineModel::builder("bad").cache(0, 32, 1);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn bad_rates_rejected() {
        let _ = MachineModel::builder("bad").rates(0.0, 1.0);
    }
}

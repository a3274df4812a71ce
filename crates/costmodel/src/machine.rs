//! Machine description and cost bookkeeping for the analytical model.

use memsim::{Latencies, MachineConfig, WorkCosts};

/// Bytes of one BUN (`\[OID, int\]`), fixed by the experimental setup
/// (§3.4.1: "BATs of 8 bytes wide tuples").
pub const BUN_BYTES: f64 = 8.0;

/// Bytes per tuple of inner cluster *plus* bucket-chained hash table used by
/// the `phash` strategies (§3.4.4's `C·12/‖L2‖` etc.).
pub const PHASH_TUPLE_BYTES: f64 = 12.0;

/// Sequential streams of a join phase: read both operands and write the
/// result (the paper's `3·|Re|`).
pub const JOIN_SEQ_STREAMS: f64 = 3.0;

/// A machine, pre-digested for the model: everything as `f64`.
#[derive(Debug, Clone, Copy)]
pub struct ModelMachine {
    /// L1 line size in bytes (`LS_L1`).
    pub l1_line: f64,
    /// Number of L1 lines (`|L1|`).
    pub l1_lines: f64,
    /// L1 capacity in bytes (`‖L1‖`).
    pub l1_bytes: f64,
    /// L2 line size in bytes (`LS_L2`).
    pub l2_line: f64,
    /// Number of L2 lines (`|L2|`).
    pub l2_lines: f64,
    /// L2 capacity in bytes (`‖L2‖`).
    pub l2_bytes: f64,
    /// Page size in bytes (`‖Pg‖`).
    pub page: f64,
    /// Number of TLB entries (`|TLB|`).
    pub tlb_entries: f64,
    /// Memory range the TLB covers (`‖TLB‖ = |TLB|·‖Pg‖`).
    pub tlb_span: f64,
    /// Miss latencies.
    pub lat: Latencies,
    /// Calibrated per-operation work.
    pub work: WorkCosts,
}

impl ModelMachine {
    /// Digest a simulator machine description.
    pub fn new(cfg: &MachineConfig) -> Self {
        let l1 = cfg.l1.unwrap_or(cfg.l2);
        Self {
            l1_line: l1.line as f64,
            l1_lines: l1.lines() as f64,
            l1_bytes: l1.capacity as f64,
            l2_line: cfg.l2.line as f64,
            l2_lines: cfg.l2.lines() as f64,
            l2_bytes: cfg.l2.capacity as f64,
            page: cfg.tlb.page as f64,
            tlb_entries: cfg.tlb.entries as f64,
            tlb_span: cfg.tlb_span() as f64,
            lat: cfg.lat,
            work: cfg.work,
        }
    }

    /// `|Re|_L1`: L1 lines occupied by a C-tuple BUN relation.
    pub fn rel_l1_lines(&self, c: f64) -> f64 {
        c * BUN_BYTES / self.l1_line
    }

    /// `|Re|_L2`: L2 lines occupied by a C-tuple BUN relation.
    pub fn rel_l2_lines(&self, c: f64) -> f64 {
        c * BUN_BYTES / self.l2_line
    }

    /// `|Re|_Pg`: pages occupied by a C-tuple BUN relation.
    pub fn rel_pages(&self, c: f64) -> f64 {
        c * BUN_BYTES / self.page
    }
}

/// A predicted cost, decomposed the way the paper's figures are.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelCost {
    /// Pure CPU work in ns.
    pub cpu_ns: f64,
    /// Predicted L1 misses.
    pub l1_misses: f64,
    /// Predicted L2 misses.
    pub l2_misses: f64,
    /// Predicted TLB misses.
    pub tlb_misses: f64,
    /// Total predicted stall time in ns (misses × latencies).
    pub stall_ns: f64,
}

impl ModelCost {
    /// Assemble from components, computing the stall total.
    pub fn assemble(cpu_ns: f64, l1: f64, l2: f64, tlb: f64, lat: &Latencies) -> Self {
        Self {
            cpu_ns,
            l1_misses: l1,
            l2_misses: l2,
            tlb_misses: tlb,
            stall_ns: l1 * lat.l2_ns + l2 * lat.mem_ns + tlb * lat.tlb_ns,
        }
    }

    /// Total predicted time in ns.
    pub fn total_ns(&self) -> f64 {
        self.cpu_ns + self.stall_ns
    }

    /// Total predicted time in ms (the paper's unit).
    pub fn total_ms(&self) -> f64 {
        self.total_ns() / 1e6
    }
}

impl std::ops::Add for ModelCost {
    type Output = ModelCost;
    fn add(self, o: ModelCost) -> ModelCost {
        ModelCost {
            cpu_ns: self.cpu_ns + o.cpu_ns,
            l1_misses: self.l1_misses + o.l1_misses,
            l2_misses: self.l2_misses + o.l2_misses,
            tlb_misses: self.tlb_misses + o.tlb_misses,
            stall_ns: self.stall_ns + o.stall_ns,
        }
    }
}

impl std::iter::Sum for ModelCost {
    fn sum<I: Iterator<Item = ModelCost>>(iter: I) -> Self {
        iter.fold(ModelCost::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    #[test]
    fn digests_origin2000() {
        let m = ModelMachine::new(&profiles::origin2000());
        assert_eq!(m.l1_lines, 1024.0);
        assert_eq!(m.l2_lines, 32768.0);
        assert_eq!(m.l1_line, 32.0);
        assert_eq!(m.l2_line, 128.0);
        assert_eq!(m.tlb_span, 1048576.0);
        // 8M tuples = 64 MB: 2M L1 lines, 512K L2 lines, 4K pages.
        let c = 8e6;
        assert_eq!(m.rel_l1_lines(c), 2e6);
        assert_eq!(m.rel_l2_lines(c), 5e5);
        assert!((m.rel_pages(c) - 64e6 / 16384.0).abs() < 1e-9);
    }

    #[test]
    fn cost_assembly_matches_decomposition() {
        let m = ModelMachine::new(&profiles::origin2000());
        let c = ModelCost::assemble(1000.0, 10.0, 5.0, 2.0, &m.lat);
        let expect = 10.0 * 24.0 + 5.0 * 412.0 + 2.0 * 228.0;
        assert!((c.stall_ns - expect).abs() < 1e-9);
        assert!((c.total_ns() - (1000.0 + expect)).abs() < 1e-9);
    }

    #[test]
    fn costs_add_componentwise() {
        let lat = profiles::origin2000().lat;
        let a = ModelCost::assemble(1.0, 2.0, 3.0, 4.0, &lat);
        let b = ModelCost::assemble(10.0, 20.0, 30.0, 40.0, &lat);
        let s = a + b;
        assert_eq!(s.l1_misses, 22.0);
        assert!((s.total_ns() - (a.total_ns() + b.total_ns())).abs() < 1e-9);
        let summed: ModelCost = [a, b].into_iter().sum();
        assert_eq!(summed, s);
    }

    #[test]
    fn machine_without_l1_uses_l2_geometry() {
        let m = ModelMachine::new(&profiles::sun_lx());
        assert_eq!(m.l1_line, m.l2_line);
        assert_eq!(m.l1_lines, m.l2_lines);
    }
}

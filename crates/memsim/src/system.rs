//! [`MemorySystem`]: the composed TLB → L1 → L2 hierarchy with event counting
//! and the paper's latency-decomposition clock.

use std::collections::HashMap;

use crate::cache::SetAssocCache;
use crate::config::{MachineConfig, VmConfig};
use crate::counters::EventCounters;
use crate::tlb::Tlb;

/// Kind of memory access. The cache model is write-allocate, so reads and
/// writes behave identically for miss counting; the distinction is kept for
/// the `reads`/`writes` counters and potential write-through extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store (write-allocate).
    Write,
}

/// The simulated memory hierarchy of one machine.
///
/// Drive it with [`touch`](Self::touch) using *real* addresses (e.g.
/// `slice.as_ptr() as u64 + offset`): using genuine heap addresses means set
/// conflicts, page boundaries and alignment behave as they would on hardware.
///
/// An inclusive hierarchy is modelled: every L1 miss is looked up in L2 (and
/// allocated there), mirroring the R10000.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MachineConfig,
    l1: Option<SetAssocCache>,
    l2: SetAssocCache,
    tlb: Tlb,
    vm: Option<VmState>,
    counters: EventCounters,
    /// The line `touch_line` saw last; `NO_LINE` when none has been since
    /// construction or `invalidate_caches`.
    last_line: u64,
}

/// "No line touched yet". Line addresses are line-aligned, so never this.
const NO_LINE: u64 = u64::MAX;

/// Resident-page set with true LRU replacement (the §4 virtual-memory
/// level). Residency is consulted on TLB misses only — a TLB-mapped page is
/// by construction resident — which keeps the hot path cheap; the LRU stamp
/// therefore refreshes on TLB misses, a documented approximation.
#[derive(Debug, Clone)]
struct VmState {
    cfg: VmConfig,
    /// page -> LRU stamp
    resident: HashMap<u64, u64>,
    /// stamp -> page (inverse map for O(log n) victim search)
    by_stamp: std::collections::BTreeMap<u64, u64>,
    clock: u64,
}

impl VmState {
    fn new(cfg: VmConfig) -> Self {
        Self {
            cfg,
            resident: HashMap::new(),
            by_stamp: std::collections::BTreeMap::new(),
            clock: 0,
        }
    }

    /// `Ok(())` if the page was already resident. Otherwise faults it in,
    /// returning the evicted LRU page (if any) so the caller can shoot down
    /// its TLB entry — preserving the invariant "TLB-mapped ⇒ resident".
    fn access(&mut self, page: u64) -> Result<(), Option<u64>> {
        self.clock += 1;
        if let Some(stamp) = self.resident.get_mut(&page) {
            self.by_stamp.remove(stamp);
            *stamp = self.clock;
            self.by_stamp.insert(self.clock, page);
            return Ok(());
        }
        let mut evicted = None;
        if self.resident.len() >= self.cfg.resident_pages {
            if let Some((&oldest, &victim)) = self.by_stamp.iter().next() {
                self.by_stamp.remove(&oldest);
                self.resident.remove(&victim);
                evicted = Some(victim);
            }
        }
        self.resident.insert(page, self.clock);
        self.by_stamp.insert(self.clock, page);
        Err(evicted)
    }

    fn invalidate(&mut self) {
        self.resident.clear();
        self.by_stamp.clear();
        self.clock = 0;
    }
}

impl MemorySystem {
    /// Build a cold (empty caches) memory system for `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            // Built before the caches. The sizes and order of these
            // allocations move where the caller's later buffers land, and so
            // the misses they simulate: `tests/determinism.rs` bounds that
            // drift between two identical runs.
            tlb: Tlb::new(cfg.tlb),
            l1: cfg.l1.map(SetAssocCache::new),
            l2: SetAssocCache::new(cfg.l2),
            vm: cfg.vm.map(VmState::new),
            counters: EventCounters::default(),
            last_line: NO_LINE,
        }
    }

    /// The machine this system simulates.
    #[inline]
    pub fn machine(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulate one access of `len` bytes at `addr`.
    ///
    /// The access is split at L1-line boundaries (or L2-line boundaries when
    /// the machine has no L1); each line goes through TLB → L1 → L2 and the
    /// clock advances by the paper's per-miss latencies. A zero-length access
    /// counts as a read or write and touches no line.
    ///
    /// A line equal to the one touched just before only counts a line
    /// access. That is exact: the previous touch left the line resident in
    /// the first cache level and most recent in its set, so it would hit
    /// there without changing the set's order, and it left the line's page
    /// as the TLB's last page, which hits without any LRU bookkeeping (a
    /// VM shootdown only ever unmaps a page other than the one faulted in).
    #[inline]
    pub fn touch(&mut self, addr: u64, len: usize, kind: Access) {
        match kind {
            Access::Read => self.counters.reads += 1,
            Access::Write => self.counters.writes += 1,
        }
        if len == 0 {
            return;
        }
        let line_size = self.cfg.l1_line() as u64;
        let first = addr & !(line_size - 1);
        let last = (addr + len as u64 - 1) & !(line_size - 1);
        let mut line_addr = first;
        loop {
            self.touch_line(line_addr);
            if line_addr == last {
                break;
            }
            line_addr += line_size;
        }
    }

    #[inline]
    fn touch_line(&mut self, addr: u64) {
        self.counters.line_accesses += 1;
        if addr == self.last_line {
            return;
        }
        self.last_line = addr;
        let lat = self.cfg.lat;
        if !self.tlb.access(addr) {
            self.counters.tlb_misses += 1;
            self.counters.stall_tlb_ns += lat.tlb_ns;
            // §4 extension: on a TLB miss, the page may not even be
            // memory-resident — that is a page fault to disk. Evicting a
            // resident page unmaps it (TLB shootdown), preserving the
            // invariant that TLB-mapped pages are resident.
            if let Some(vm) = self.vm.as_mut() {
                let page = self.tlb.page_of(addr);
                if let Err(evicted) = vm.access(page) {
                    self.counters.page_faults += 1;
                    self.counters.stall_fault_ns += vm.cfg.fault_ns;
                    if let Some(victim) = evicted {
                        self.tlb.invalidate_page(victim);
                    }
                }
            }
        }
        match self.l1.as_mut() {
            Some(l1) => {
                if !l1.access_addr(addr) {
                    self.counters.l1_misses += 1;
                    self.counters.stall_l2_ns += lat.l2_ns;
                    if !self.l2.access_addr(addr) {
                        self.counters.l2_misses += 1;
                        self.counters.stall_mem_ns += lat.mem_ns;
                    }
                }
            }
            None => {
                // Machines without a modelled L1 (SunLX): the only cache is
                // L2; a miss there goes straight to memory.
                if !self.l2.access_addr(addr) {
                    self.counters.l2_misses += 1;
                    self.counters.stall_mem_ns += lat.mem_ns;
                }
            }
        }
    }

    /// Account pure CPU work (nanoseconds). This is where the paper's `w`
    /// constants enter the clock.
    #[inline]
    pub fn cpu_ns(&mut self, ns: f64) {
        self.counters.cpu_ns += ns;
    }

    /// Snapshot of the counters so far.
    #[inline]
    pub fn counters(&self) -> EventCounters {
        self.counters
    }

    /// Add `c` to the counters, leaving cache/TLB state alone: where a
    /// parallel kernel's forked workers report their work.
    pub(crate) fn add_counters(&mut self, c: EventCounters) {
        self.counters += c;
    }

    /// Reset counters to zero without touching cache/TLB state (use between
    /// phases you want to measure separately).
    pub fn reset_counters(&mut self) {
        self.counters = EventCounters::default();
    }

    /// Empty caches and TLB — the paper's "we made sure that the buffer was
    /// in memory, but not in any of the memory caches" starting condition.
    pub fn invalidate_caches(&mut self) {
        if let Some(l1) = self.l1.as_mut() {
            l1.invalidate();
        }
        self.l2.invalidate();
        self.tlb.invalidate();
        if let Some(vm) = self.vm.as_mut() {
            vm.invalidate();
        }
        self.last_line = NO_LINE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        let n = 1 << 16; // 64 KiB, exceeds L1 (32 KiB)
        for a in (0..n).step_by(8) {
            sys.touch(a, 8, Access::Read);
        }
        let c = sys.counters();
        assert_eq!(c.l1_misses, n / 32);
        assert_eq!(c.l2_misses, n / 128);
        // 64 KiB spans 4 pages of 16 KiB.
        assert_eq!(c.tlb_misses, n / (16 * 1024));
        assert_eq!(c.reads, n / 8);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        sys.touch(30, 8, Access::Read); // crosses the 32-byte boundary
        assert_eq!(sys.counters().line_accesses, 2);
        assert_eq!(sys.counters().l1_misses, 2);
    }

    #[test]
    fn second_pass_over_l1_resident_data_is_free() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        let n = 16 * 1024; // half of L1
        for a in (0..n).step_by(8) {
            sys.touch(a, 8, Access::Read);
        }
        let first = sys.counters();
        for a in (0..n).step_by(8) {
            sys.touch(a, 8, Access::Read);
        }
        let second = sys.counters() - first;
        assert_eq!(second.l1_misses, 0);
        assert_eq!(second.l2_misses, 0);
        assert_eq!(second.tlb_misses, 0);
    }

    #[test]
    fn elapsed_time_decomposition_matches_paper_equation() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        let n = 1 << 20;
        for a in (0..n).step_by(128) {
            sys.touch(a, 1, Access::Read);
        }
        sys.cpu_ns(1000.0);
        let c = sys.counters();
        let lat = sys.machine().lat;
        let expect = 1000.0
            + c.l1_misses as f64 * lat.l2_ns
            + c.l2_misses as f64 * lat.mem_ns
            + c.tlb_misses as f64 * lat.tlb_ns;
        assert!((c.elapsed_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn no_l1_machine_counts_l2_misses_directly() {
        let mut sys = MemorySystem::new(profiles::sun_lx());
        for a in (0..4096u64).step_by(16) {
            sys.touch(a, 1, Access::Read);
        }
        let c = sys.counters();
        assert_eq!(c.l1_misses, 0);
        assert_eq!(c.l2_misses, 4096 / 16);
    }

    #[test]
    fn invalidate_forces_cold_misses_again() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        sys.touch(0, 8, Access::Read);
        sys.invalidate_caches();
        sys.reset_counters();
        sys.touch(0, 8, Access::Read);
        assert_eq!(sys.counters().l1_misses, 1);
        assert_eq!(sys.counters().tlb_misses, 1);
    }

    #[test]
    fn vm_level_counts_page_faults_with_lru() {
        let mut cfg = profiles::origin2000();
        cfg.vm = Some(crate::config::VmConfig::new(4, 8_000_000.0)); // 4 pages
        let mut sys = MemorySystem::new(cfg);
        let page = 16 * 1024u64;
        // Touch 8 distinct pages round-robin: every page access faults
        // (8-page working set through a 4-page LRU resident set).
        let mut faults_expected = 0;
        for round in 0..3 {
            for pg in 0..8u64 {
                sys.touch(pg * page, 1, Access::Read);
                faults_expected += 1;
            }
            let _ = round;
        }
        assert_eq!(sys.counters().page_faults, faults_expected);
        assert!(sys.counters().stall_fault_ns > 0.0);
        // A 4-page working set stops faulting after warm-up.
        sys.reset_counters();
        for _ in 0..3 {
            for pg in 100..104u64 {
                sys.touch(pg * page, 1, Access::Read);
            }
        }
        assert_eq!(sys.counters().page_faults, 4, "only the cold faults remain");
    }

    #[test]
    fn vm_sequential_scan_faults_once_per_page() {
        let mut cfg = profiles::origin2000();
        cfg.vm = Some(crate::config::VmConfig::new(16, 8_000_000.0));
        let mut sys = MemorySystem::new(cfg);
        let len = 1 << 20; // 64 pages of 16 KB
        for a in (0..len).step_by(128) {
            sys.touch(a, 8, Access::Read);
        }
        assert_eq!(sys.counters().page_faults, 64);
        // Page faults dominate elapsed time at this scale.
        assert!(sys.counters().stall_fault_ns > sys.counters().stall_mem_ns);
    }

    #[test]
    fn no_vm_level_means_no_faults() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        for a in (0..1 << 22u64).step_by(16384) {
            sys.touch(a, 1, Access::Read);
        }
        assert_eq!(sys.counters().page_faults, 0);
        assert_eq!(sys.counters().stall_fault_ns, 0.0);
    }

    #[test]
    fn zero_length_touch_counts_the_access_and_no_line() {
        let mut sys = MemorySystem::new(profiles::origin2000());
        sys.touch(0, 0, Access::Read); // line-aligned: once looped over 2^64
        sys.touch(100, 0, Access::Write);
        let c = sys.counters();
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!((c.line_accesses, c.l1_misses, c.tlb_misses), (0, 0, 0));
    }
}

//! Property tests for the memory-hierarchy simulator: the optimized
//! implementations must agree with trivially correct reference models on
//! arbitrary access streams. The whole reproduction leans on these
//! components, so they get the adversarial treatment.

use proptest::prelude::*;

use monet_mem::memsim::{
    profiles, Access, CacheConfig, EventCounters, MachineConfig, MemorySystem, SetAssocCache, Tlb,
    TlbConfig, VmConfig,
};

/// Reference set-associative LRU cache: per-set Vec, most recent at the
/// back. Obviously correct, unoptimized.
struct RefCache {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: vec![Vec::new(); cfg.sets()],
            assoc: cfg.assoc,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: cfg.sets() as u64 - 1,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push(line);
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0);
            }
            set.push(line);
            false
        }
    }

    fn invalidate(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// Reference fully-associative LRU TLB.
struct RefTlb {
    pages: Vec<u64>,
    entries: usize,
    page_shift: u32,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> Self {
        Self { pages: Vec::new(), entries: cfg.entries, page_shift: cfg.page.trailing_zeros() }
    }

    fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.push(page);
            true
        } else {
            if self.pages.len() == self.entries {
                self.pages.remove(0);
            }
            self.pages.push(page);
            false
        }
    }

    fn invalidate_page(&mut self, page: u64) {
        self.pages.retain(|&p| p != page);
    }

    fn invalidate(&mut self) {
        self.pages.clear();
    }
}

/// Reference memory system: the same TLB → L1 → L2 hierarchy and counters
/// as `MemorySystem`, built from `RefCache`, `RefTlb` and a plain LRU list
/// of resident pages, with every line of every access going the whole way
/// down.
struct RefSystem {
    cfg: MachineConfig,
    l1: Option<RefCache>,
    l2: RefCache,
    tlb: RefTlb,
    /// Resident pages, least recently used first (the VM level; consulted
    /// on TLB misses only, as `MemorySystem` documents).
    resident: Vec<u64>,
    c: EventCounters,
}

impl RefSystem {
    fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            l1: cfg.l1.map(RefCache::new),
            l2: RefCache::new(cfg.l2),
            tlb: RefTlb::new(cfg.tlb),
            resident: Vec::new(),
            c: EventCounters::default(),
        }
    }

    fn touch(&mut self, addr: u64, len: usize, kind: Access) {
        match kind {
            Access::Read => self.c.reads += 1,
            Access::Write => self.c.writes += 1,
        }
        let line = self.cfg.l1_line() as u64;
        for line_addr in (addr / line * line..addr + len as u64).step_by(line as usize) {
            self.touch_line(line_addr);
        }
    }

    fn touch_line(&mut self, addr: u64) {
        let lat = self.cfg.lat;
        self.c.line_accesses += 1;
        if !self.tlb.access(addr) {
            self.c.tlb_misses += 1;
            self.c.stall_tlb_ns += lat.tlb_ns;
            if let Some(vm) = self.cfg.vm {
                let page = addr / self.cfg.tlb.page as u64;
                if let Some(pos) = self.resident.iter().position(|&p| p == page) {
                    self.resident.remove(pos);
                } else {
                    self.c.page_faults += 1;
                    self.c.stall_fault_ns += vm.fault_ns;
                    if self.resident.len() == vm.resident_pages {
                        let victim = self.resident.remove(0);
                        self.tlb.invalidate_page(victim);
                    }
                }
                self.resident.push(page);
            }
        }
        let l1_hit = self.l1.as_mut().map(|l1| l1.access(addr));
        if l1_hit == Some(false) {
            self.c.l1_misses += 1;
            self.c.stall_l2_ns += lat.l2_ns;
        }
        if l1_hit != Some(true) && !self.l2.access(addr) {
            self.c.l2_misses += 1;
            self.c.stall_mem_ns += lat.mem_ns;
        }
    }

    fn invalidate_caches(&mut self) {
        if let Some(l1) = self.l1.as_mut() {
            l1.invalidate();
        }
        self.l2.invalidate();
        self.tlb.invalidate();
        self.resident.clear();
    }
}

/// Every counter field, the `f64` ones as their bits.
fn counter_bits(c: &EventCounters) -> [u64; 12] {
    [
        c.reads,
        c.writes,
        c.line_accesses,
        c.l1_misses,
        c.l2_misses,
        c.tlb_misses,
        c.page_faults,
        c.cpu_ns.to_bits(),
        c.stall_l2_ns.to_bits(),
        c.stall_mem_ns.to_bits(),
        c.stall_tlb_ns.to_bits(),
        c.stall_fault_ns.to_bits(),
    ]
}

/// One step of a trace over up to five interleaved streams.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Touch `len` bytes at the stream's cursor `reps` times, then advance
    /// the cursor past them.
    Touch { stream: usize, len: usize, write: bool, reps: usize },
    /// Move the stream's cursor forward by `pages` pages plus `off` bytes.
    Hop { stream: usize, pages: u64, off: u64 },
    /// `invalidate_caches` on both systems.
    Invalidate,
}

fn trace(max_len: usize) -> impl Strategy<Value = (usize, Vec<Step>)> {
    let step = (0u32..64, 0usize..5, (1usize..301, 0u64..512), (1usize..9, any::<bool>()))
        .prop_map(|(roll, stream, (len, off), (reps, write))| match roll {
            0 => Step::Invalidate,
            1..=6 => Step::Hop { stream, pages: off % 8, off },
            // A run of same-line touches.
            7..=12 => Step::Touch { stream, len: len % 8 + 1, write, reps: 8 * reps },
            // Element-sized touches, several to a line.
            13..=44 => Step::Touch { stream, len: len % 8 + 1, write, reps: 1 },
            _ => Step::Touch { stream, len, write, reps: 1 },
        });
    (1usize..6, prop::collection::vec(step, 1..max_len))
}

/// Every profile, plus the Origin2000 with a resident set of `vm_pages`
/// pages (fewer than its 64 TLB entries at most sizes, so faults shoot
/// down mapped pages).
fn machines(vm_pages: usize) -> Vec<MachineConfig> {
    let mut vm = profiles::origin2000();
    vm.vm = Some(VmConfig::new(vm_pages, 8_000_000.0));
    let mut all = profiles::figure3_machines();
    all.extend([profiles::modern(), vm]);
    all
}

fn addr_stream(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    // Mixed locality: small offsets within a few regions to exercise both
    // hits and conflict evictions.
    prop::collection::vec((0u64..8, 0u64..4096), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(region, off)| region * 65_536 + off).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_lru(
        assoc in 1usize..17,
        sets_pow in 0u32..5,
        line_pow in 4u32..8,
        profile in 0usize..7,
        picks in prop::collection::vec((0u64..20, 0u64..4, 0u64..128), 1..400),
    ) {
        // A drawn geometry, then one of the paper profiles' L1/L2 caches.
        let line = 1usize << line_pow;
        let mut geoms = vec![CacheConfig::new((line << sets_pow) * assoc, line, assoc)];
        let paper: Vec<CacheConfig> =
            profiles::figure3_machines().iter().flat_map(|m| m.l1.into_iter().chain([m.l2])).collect();
        geoms.push(paper[profile % paper.len()]);
        for cfg in geoms {
            // `assoc + 4` tags over four sets: conflict evictions in every set.
            let period = (cfg.sets() * cfg.line) as u64;
            let mut fast = SetAssocCache::new(cfg);
            let mut slow = RefCache::new(cfg);
            for (i, &(tag, set, off)) in picks.iter().enumerate() {
                let a = (tag % (cfg.assoc as u64 + 4)) * period
                    + (set % cfg.sets() as u64) * cfg.line as u64
                    + off % cfg.line as u64;
                prop_assert_eq!(fast.access_addr(a), slow.access(a), "{:?}: divergence at access {}", cfg, i);
            }
        }
    }

    #[test]
    fn tlb_matches_reference_lru(
        picks in prop::collection::vec((0u32..32, 0u64..96, 0u64..4096), 1..600),
    ) {
        // 96 pages through 64 entries, with one pick in 32 shooting a page down.
        let cfg = TlbConfig::new(64, 4096);
        let mut fast = Tlb::new(cfg);
        let mut slow = RefTlb::new(cfg);
        for (i, &(roll, page, off)) in picks.iter().enumerate() {
            if roll == 0 {
                fast.invalidate_page(page);
                slow.invalidate_page(page);
                prop_assert!(!fast.contains_page(page));
            } else {
                let a = page * 4096 + off;
                prop_assert_eq!(fast.access(a), slow.access(a), "divergence at access {}", i);
            }
        }
    }

    #[test]
    fn system_matches_reference_on_every_profile(
        trace in trace(300),
        vm_pages in 2usize..97,
    ) {
        let (streams, steps) = trace;
        for cfg in machines(vm_pages) {
            let mut fast = MemorySystem::new(cfg);
            let mut slow = RefSystem::new(cfg);
            // Streams 4 MiB apart share cache sets; odd offsets make
            // accesses straddle lines.
            let mut cursor: Vec<u64> = (0..streams as u64).map(|s| (s << 22) + 40 * s).collect();
            for (i, &step) in steps.iter().enumerate() {
                match step {
                    Step::Touch { stream, len, write, reps } => {
                        let at = &mut cursor[stream % streams];
                        let kind = if write { Access::Write } else { Access::Read };
                        for _ in 0..reps {
                            fast.touch(*at, len, kind);
                            slow.touch(*at, len, kind);
                        }
                        *at += len as u64;
                    }
                    Step::Hop { stream, pages, off } => {
                        cursor[stream % streams] += pages * cfg.tlb.page as u64 + off;
                    }
                    Step::Invalidate => {
                        fast.invalidate_caches();
                        slow.invalidate_caches();
                    }
                }
                prop_assert_eq!(
                    counter_bits(&fast.counters()),
                    counter_bits(&slow.c),
                    "{}: divergence at step {} ({:?})", cfg.name, i, step
                );
            }
        }
    }

    #[test]
    fn counters_are_consistent_on_any_stream(stream in addr_stream(300)) {
        let mut sys = MemorySystem::new(monet_mem::memsim::profiles::origin2000());
        for &a in &stream {
            sys.touch(a, 4, Access::Read);
        }
        let c = sys.counters();
        // Structural invariants that hold for every access stream:
        prop_assert!(c.l2_misses <= c.l1_misses, "L2 misses only happen below L1 misses");
        prop_assert!(c.l1_misses <= c.line_accesses);
        prop_assert!(c.tlb_misses <= c.line_accesses);
        prop_assert_eq!(c.reads, stream.len() as u64);
        prop_assert!(c.elapsed_ns() >= 0.0);
        let lat = sys.machine().lat;
        prop_assert!((c.stall_mem_ns - c.l2_misses as f64 * lat.mem_ns).abs() < 1e-6);
    }

    #[test]
    fn repeated_stream_second_round_never_misses_more(stream in addr_stream(200)) {
        // Warm caches can only help: replaying the identical stream must not
        // produce more misses than the cold round.
        let mut sys = MemorySystem::new(monet_mem::memsim::profiles::origin2000());
        for &a in &stream {
            sys.touch(a, 1, Access::Read);
        }
        let cold = sys.counters();
        for &a in &stream {
            sys.touch(a, 1, Access::Read);
        }
        let warm = sys.counters() - cold;
        prop_assert!(warm.l1_misses <= cold.l1_misses);
        prop_assert!(warm.l2_misses <= cold.l2_misses);
        prop_assert!(warm.tlb_misses <= cold.tlb_misses);
    }

    #[test]
    fn counter_algebra_roundtrips(
        a_reads in 0u64..1000, b_reads in 0u64..1000,
        a_ns in 0.0f64..1e6, b_ns in 0.0f64..1e6,
    ) {
        use monet_mem::memsim::EventCounters;
        let a = EventCounters { reads: a_reads, cpu_ns: a_ns, ..Default::default() };
        let b = EventCounters { reads: b_reads, cpu_ns: b_ns, ..Default::default() };
        let sum = a + b;
        let back = sum - a;
        prop_assert_eq!(back.reads, b.reads);
        prop_assert!((back.cpu_ns - b.cpu_ns).abs() < 1e-9);
    }
}

//! Machine profiles.
//!
//! The paper's experiments run on an SGI Origin2000 whose full geometry is
//! given in §3.4.1; Figure 3 additionally plots three older Sun workstations
//! for which the paper lists CPU clock and line sizes. Latencies for the Sun
//! machines are not given in the paper; the values below are period-plausible
//! reconstructions chosen so that Figure 3's *shape* statement holds (memory
//! latency nearly flat across the decade while CPU speed grows ~10×). They
//! are documented here as part of the hardware substitution.

use crate::config::{CacheConfig, Latencies, MachineConfig, TlbConfig, WorkCosts};

/// Work costs calibrated by the paper on the Origin2000 (§3.4 footnotes).
pub fn origin2000_work() -> WorkCosts {
    WorkCosts {
        cluster_tuple_ns: 50.0,
        radix_compare_ns: 24.0,
        radix_result_ns: 240.0,
        hash_tuple_ns: 680.0,
        hash_cluster_ns: 3600.0,
        scan_iter_ns: 16.0, // 4 cycles @ 250 MHz
        sort_tuple_ns: 50.0,
        merge_tuple_ns: 24.0,
    }
}

/// SGI Origin2000, one 250 MHz MIPS R10000 (the paper's experiment machine).
///
/// Geometry from §3.4.1: L1 32 KB = 1024 × 32 B lines; L2 4 MB = 32768 ×
/// 128 B lines; 16 KB pages, 64 TLB entries. Latencies from the paper's
/// calibration: l_TLB = 228 ns, l_L2 = 24 ns, l_Mem = 412 ns.
pub fn origin2000() -> MachineConfig {
    MachineConfig {
        name: "origin2k",
        cpu_mhz: 250.0,
        l1: Some(CacheConfig::new(32 * 1024, 32, 2)),
        l2: CacheConfig::new(4 * 1024 * 1024, 128, 2),
        tlb: TlbConfig::new(64, 16 * 1024),
        vm: None,
        lat: Latencies { l2_ns: 24.0, mem_ns: 412.0, tlb_ns: 228.0 },
        work: origin2000_work(),
    }
}

fn scaled_work(scan_iter_ns: f64, scale: f64) -> WorkCosts {
    let w = origin2000_work();
    WorkCosts {
        cluster_tuple_ns: w.cluster_tuple_ns * scale,
        radix_compare_ns: w.radix_compare_ns * scale,
        radix_result_ns: w.radix_result_ns * scale,
        hash_tuple_ns: w.hash_tuple_ns * scale,
        hash_cluster_ns: w.hash_cluster_ns * scale,
        scan_iter_ns,
        sort_tuple_ns: w.sort_tuple_ns * scale,
        merge_tuple_ns: w.merge_tuple_ns * scale,
    }
}

/// Sun Ultra Enterprise 450, 296 MHz UltraSPARC-II (Fig. 3, year 1997).
///
/// Fig. 3 gives L2 line 64 B, L1 line 16 B. Cache capacities (16 KB L1,
/// 1 MB L2), 64-entry/8 KB TLB and the latency set are period-plausible
/// reconstructions (see module docs).
pub fn sun_ultra450() -> MachineConfig {
    MachineConfig {
        name: "sun450",
        cpu_mhz: 296.0,
        l1: Some(CacheConfig::new(16 * 1024, 16, 1)),
        l2: CacheConfig::new(1024 * 1024, 64, 1),
        tlb: TlbConfig::new(64, 8 * 1024),
        vm: None,
        lat: Latencies { l2_ns: 30.0, mem_ns: 270.0, tlb_ns: 200.0 },
        work: scaled_work(13.5, 250.0 / 296.0), // 4 cycles @ 296 MHz
    }
}

/// Sun Ultra 1, 143 MHz UltraSPARC-I (Fig. 3, year 1995).
pub fn sun_ultra1() -> MachineConfig {
    MachineConfig {
        name: "ultra",
        cpu_mhz: 143.0,
        l1: Some(CacheConfig::new(16 * 1024, 16, 1)),
        l2: CacheConfig::new(512 * 1024, 64, 1),
        tlb: TlbConfig::new(64, 8 * 1024),
        vm: None,
        lat: Latencies { l2_ns: 42.0, mem_ns: 266.0, tlb_ns: 230.0 },
        work: scaled_work(28.0, 250.0 / 143.0), // 4 cycles @ 143 MHz
    }
}

/// Sun LX, 50 MHz microSPARC (Fig. 3, year 1992).
///
/// The paper lists only an L2 with 16 B lines for this machine (no on-chip
/// data cache is modelled), so `l1` is `None` and every cache miss is an L2
/// miss in the model's terms.
pub fn sun_lx() -> MachineConfig {
    MachineConfig {
        name: "sunLX",
        cpu_mhz: 50.0,
        l1: None,
        l2: CacheConfig::new(64 * 1024, 16, 1),
        tlb: TlbConfig::new(32, 4 * 1024),
        vm: None,
        lat: Latencies { l2_ns: 60.0, mem_ns: 220.0, tlb_ns: 180.0 },
        work: scaled_work(80.0, 250.0 / 50.0), // 4 cycles @ 50 MHz
    }
}

/// A present-day commodity x86 core (extension; not in the paper).
///
/// Shows the §2 trend has continued (`repro fig1`): relative to
/// the Origin2000 the CPU is ~15× faster per cycle-count while DRAM latency
/// has barely halved, so the stall fraction at large stride is even worse.
pub fn modern() -> MachineConfig {
    MachineConfig {
        name: "modern",
        cpu_mhz: 4000.0,
        l1: Some(CacheConfig::new(48 * 1024, 64, 12)),
        l2: CacheConfig::new(32 * 1024 * 1024, 64, 16), // LLC stand-in
        tlb: TlbConfig::new(1536, 4 * 1024),
        vm: None,
        lat: Latencies { l2_ns: 12.0, mem_ns: 80.0, tlb_ns: 25.0 },
        work: scaled_work(1.0, 250.0 / 4000.0), // 4 cycles @ 4 GHz
    }
}

/// Derive a profile whose memory-hierarchy latencies are scaled by `factor`
/// (geometry and CPU work costs unchanged).
///
/// This models a *placement* of the same hardware under different memory
/// conditions — a remote or contended replica of a shard sees the same
/// caches but pays more per miss — and is what the sharded-execution placer
/// feeds to the cost model so shard plans are priced per copy.
pub fn with_latency_scale(mut cfg: MachineConfig, factor: f64) -> MachineConfig {
    cfg.lat = Latencies {
        l2_ns: cfg.lat.l2_ns * factor,
        mem_ns: cfg.lat.mem_ns * factor,
        tlb_ns: cfg.lat.tlb_ns * factor,
    };
    cfg
}

/// The four machines of Figure 3, oldest last (matching the figure legend).
pub fn figure3_machines() -> Vec<MachineConfig> {
    vec![origin2000(), sun_ultra450(), sun_ultra1(), sun_lx()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin2000_matches_paper_geometry() {
        let m = origin2000();
        let l1 = m.l1.unwrap();
        assert_eq!(l1.lines(), 1024);
        assert_eq!(l1.line, 32);
        assert_eq!(m.l2.lines(), 32768);
        assert_eq!(m.l2.line, 128);
        assert_eq!(m.tlb.entries, 64);
        assert_eq!(m.tlb.page, 16 * 1024);
        assert_eq!(m.tlb_span(), 1 << 20);
        assert!((m.work.scan_iter_ns - 4.0 * m.ns_per_cycle()).abs() < 1e-9);
    }

    #[test]
    fn figure3_line_sizes_match_legend() {
        let ms = figure3_machines();
        assert_eq!(ms[0].l1_line(), 32);
        assert_eq!(ms[0].l2.line, 128);
        assert_eq!(ms[1].l1_line(), 16);
        assert_eq!(ms[1].l2.line, 64);
        assert_eq!(ms[2].l1_line(), 16);
        assert_eq!(ms[2].l2.line, 64);
        assert!(ms[3].l1.is_none());
        assert_eq!(ms[3].l2.line, 16);
    }

    #[test]
    fn latency_scale_touches_only_latencies() {
        let base = origin2000();
        let far = with_latency_scale(origin2000(), 1.5);
        assert!((far.lat.mem_ns - base.lat.mem_ns * 1.5).abs() < 1e-9);
        assert!((far.lat.l2_ns - base.lat.l2_ns * 1.5).abs() < 1e-9);
        assert!((far.lat.tlb_ns - base.lat.tlb_ns * 1.5).abs() < 1e-9);
        assert_eq!(far.work.scan_iter_ns, base.work.scan_iter_ns);
        assert_eq!(far.l2.line, base.l2.line);
        assert_eq!(far.name, base.name);
    }

    #[test]
    fn cpu_speed_grows_much_faster_than_memory_improves() {
        // The §1/Fig. 1 premise encoded in the profiles: 1992→1998 CPU work
        // per iteration drops ~5×, memory latency changes by < 2×.
        let old = sun_lx();
        let new = origin2000();
        assert!(old.work.scan_iter_ns / new.work.scan_iter_ns > 4.0);
        assert!(old.lat.mem_ns / new.lat.mem_ns > 0.5);
        assert!(new.lat.mem_ns / old.lat.mem_ns < 2.0);
    }
}

//! Clustering strategies and pass planning — §3.4.4.
//!
//! The paper identifies four named strategies for choosing the radix bit
//! count `B`, corresponding to the diagonals of Figures 10–12:
//!
//! * `phash L2`  — `B = log2(C·12/‖L2‖)`: inner cluster + hash table fits L2
//!   (this is the \[SKN94\] setting).
//! * `phash TLB` — `B = log2(C·12/‖TLB‖)`: cluster spans ≤ |TLB| pages.
//! * `phash L1`  — `B = log2(C·12/‖L1‖)`: cluster fits L1 (needs multi-pass
//!   clustering).
//! * `radix 8`   — `B = log2(C/8)`: radix-join with ~8-tuple clusters.
//!
//! plus the empirically best settings `phash min` (~200-tuple clusters) and
//! `radix min` (~4-tuple clusters). Pass planning follows §3.4.2's findings:
//! at most `log2(|TLB|)` bits per pass, bits distributed evenly.

use memsim::MachineConfig;

/// Bytes per tuple the paper's strategy formulas charge for the inner
/// relation *plus* its hash table: the 8-byte BUN + ~4 bytes of bucket/chain
/// arrays.
pub const PHASH_BYTES_PER_TUPLE: usize = 12;

/// Tuples per cluster for the `radix 8` strategy.
pub const RADIX8_TUPLES: usize = 8;

/// Tuples per cluster at the empirical optimum of partitioned hash-join
/// ("partitioned hash-join performs best with cluster size of approximately
/// 200 tuples", §3.4.4).
pub const PHASH_MIN_TUPLES: usize = 200;

/// Tuples per cluster at the empirical optimum of radix-join ("radix with
/// just 4 tuples per cluster", §3.4.4).
pub const RADIX_MIN_TUPLES: usize = 4;

/// `ceil(log2(x))` for positive ratios, clamped to ≥ 0.
fn ceil_log2_ratio(num: f64, den: f64) -> u32 {
    if num <= den || den <= 0.0 {
        return 0;
    }
    (num / den).log2().ceil() as u32
}

/// Bits so each cluster holds at most `tuples_per_cluster` tuples:
/// `B = ceil(log2(C / tuples_per_cluster))`.
pub fn bits_phash_tuples(cardinality: usize, tuples_per_cluster: usize) -> u32 {
    ceil_log2_ratio(cardinality as f64, tuples_per_cluster as f64)
}

/// `phash L2`: inner cluster + hash table (12 B/tuple) fits the L2 cache.
pub fn bits_phash_l2(cardinality: usize, m: &MachineConfig) -> u32 {
    ceil_log2_ratio((cardinality * PHASH_BYTES_PER_TUPLE) as f64, m.l2.capacity as f64)
}

/// `phash TLB`: inner cluster + hash table spans at most |TLB| pages.
pub fn bits_phash_tlb(cardinality: usize, m: &MachineConfig) -> u32 {
    ceil_log2_ratio((cardinality * PHASH_BYTES_PER_TUPLE) as f64, m.tlb_span() as f64)
}

/// `phash L1`: inner cluster + hash table fits the L1 cache.
pub fn bits_phash_l1(cardinality: usize, m: &MachineConfig) -> u32 {
    let l1 = m.l1.map_or(m.l2.capacity, |c| c.capacity);
    ceil_log2_ratio((cardinality * PHASH_BYTES_PER_TUPLE) as f64, l1 as f64)
}

/// `radix 8`: radix-join on ~8-tuple clusters, `B = log2(C/8)`.
pub fn bits_radix8(cardinality: usize) -> u32 {
    bits_phash_tuples(cardinality, RADIX8_TUPLES)
}

/// `phash min`: the empirically optimal ~200-tuple clusters.
pub fn bits_phash_min(cardinality: usize) -> u32 {
    bits_phash_tuples(cardinality, PHASH_MIN_TUPLES)
}

/// `radix min`: the empirically optimal ~4-tuple clusters.
pub fn bits_radix_min(cardinality: usize) -> u32 {
    bits_phash_tuples(cardinality, RADIX_MIN_TUPLES)
}

/// Split `bits` over passes so no pass creates more clusters than the TLB
/// has entries (§3.4.2: "the number of clusters per pass is limited to at
/// most the number of TLB entries"), distributing bits evenly ("the
/// performance strongly depends on even distribution of bits"). Larger
/// shares go to earlier passes.
pub fn plan_passes(bits: u32, tlb_entries: usize) -> Vec<u32> {
    if bits == 0 {
        return Vec::new();
    }
    let max_per_pass = (usize::BITS - 1 - tlb_entries.leading_zeros()).max(1); // floor(log2)
    let passes = bits.div_ceil(max_per_pass);
    let base = bits / passes;
    let extra = bits % passes;
    (0..passes).map(|p| if p < extra { base + 1 } else { base }).collect()
}

/// A fully specified clustering+join decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Radix bits `B` (0 for the unpartitioned algorithms).
    pub bits: u32,
    /// Bits per clustering pass (empty when `bits == 0`).
    pub pass_bits: Vec<u32>,
}

/// Join algorithms the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Partitioned hash-join on radix-clustered inputs.
    PartitionedHash,
    /// Radix-join (fine clusters + nested loop).
    Radix,
    /// Non-partitioned bucket-chained hash join.
    SimpleHash,
    /// Sort-merge join.
    SortMerge,
}

/// Named strategies of §3.4.4 (plus the baselines), used by the figure
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// `phash L2`.
    PhashL2,
    /// `phash TLB`.
    PhashTlb,
    /// `phash L1`.
    PhashL1,
    /// `phash 256` (Figure 13's fixed-256-tuple-cluster variant).
    Phash256,
    /// `phash min` (~200-tuple clusters).
    PhashMin,
    /// `radix 8`.
    Radix8,
    /// `radix min` (~4-tuple clusters).
    RadixMin,
    /// Unpartitioned hash join.
    SimpleHash,
    /// Sort-merge join.
    SortMerge,
}

impl Strategy {
    /// All strategies, in Figure 13's legend order.
    pub const ALL: [Strategy; 9] = [
        Strategy::SortMerge,
        Strategy::SimpleHash,
        Strategy::PhashL2,
        Strategy::PhashTlb,
        Strategy::PhashL1,
        Strategy::Phash256,
        Strategy::PhashMin,
        Strategy::Radix8,
        Strategy::RadixMin,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::PhashL2 => "phash L2",
            Strategy::PhashTlb => "phash TLB",
            Strategy::PhashL1 => "phash L1",
            Strategy::Phash256 => "phash 256",
            Strategy::PhashMin => "phash min",
            Strategy::Radix8 => "radix 8",
            Strategy::RadixMin => "radix min",
            Strategy::SimpleHash => "simple hash",
            Strategy::SortMerge => "sort-merge",
        }
    }

    /// Resolve to a concrete plan for joining two relations of `cardinality`
    /// tuples each on machine `m`.
    pub fn plan(&self, cardinality: usize, m: &MachineConfig) -> JoinPlan {
        let (algorithm, bits) = match self {
            Strategy::PhashL2 => (Algorithm::PartitionedHash, bits_phash_l2(cardinality, m)),
            Strategy::PhashTlb => (Algorithm::PartitionedHash, bits_phash_tlb(cardinality, m)),
            Strategy::PhashL1 => (Algorithm::PartitionedHash, bits_phash_l1(cardinality, m)),
            Strategy::Phash256 => (Algorithm::PartitionedHash, bits_phash_tuples(cardinality, 256)),
            Strategy::PhashMin => (Algorithm::PartitionedHash, bits_phash_min(cardinality)),
            Strategy::Radix8 => (Algorithm::Radix, bits_radix8(cardinality)),
            Strategy::RadixMin => (Algorithm::Radix, bits_radix_min(cardinality)),
            Strategy::SimpleHash => (Algorithm::SimpleHash, 0),
            Strategy::SortMerge => (Algorithm::SortMerge, 0),
        };
        JoinPlan { algorithm, bits, pass_bits: plan_passes(bits, m.tlb.entries) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    #[test]
    fn strategy_bits_match_paper_formulas_on_origin2000() {
        let m = profiles::origin2000();
        // C = 8M: C·12 = 96 MB. L2 = 4 MB ⇒ 24x ⇒ 5 bits. ‖TLB‖ = 1 MB ⇒
        // 96x ⇒ 7 bits. L1 = 32 KB ⇒ 3072x ⇒ 12 bits. radix8 ⇒ 20 bits.
        let c = 8_000_000;
        assert_eq!(bits_phash_l2(c, &m), 5);
        assert_eq!(bits_phash_tlb(c, &m), 7);
        assert_eq!(bits_phash_l1(c, &m), 12);
        assert_eq!(bits_radix8(c), 20);
        assert_eq!(bits_radix_min(c), 21);
        // phash min: 8M/200 = 40960 ⇒ 16 bits.
        assert_eq!(bits_phash_min(c), 16);
    }

    #[test]
    fn small_relations_need_no_clustering() {
        let m = profiles::origin2000();
        // 1000 tuples × 12 B = 12 KB < L2, < ‖TLB‖, < L1.
        assert_eq!(bits_phash_l2(1000, &m), 0);
        assert_eq!(bits_phash_tlb(1000, &m), 0);
        assert_eq!(bits_phash_l1(1000, &m), 0);
    }

    #[test]
    fn pass_planning_respects_tlb_limit_and_evenness() {
        // 64 TLB entries ⇒ ≤ 6 bits per pass.
        assert_eq!(plan_passes(0, 64), Vec::<u32>::new());
        assert_eq!(plan_passes(6, 64), vec![6]);
        assert_eq!(plan_passes(7, 64), vec![4, 3]);
        assert_eq!(plan_passes(12, 64), vec![6, 6]);
        assert_eq!(plan_passes(13, 64), vec![5, 4, 4]);
        assert_eq!(plan_passes(18, 64), vec![6, 6, 6]);
        assert_eq!(plan_passes(20, 64), vec![5, 5, 5, 5]);
        for b in 1..=26 {
            let p = plan_passes(b, 64);
            assert_eq!(p.iter().sum::<u32>(), b);
            assert!(p.iter().all(|&x| x <= 6 && x > 0));
            let (mn, mx) = (p.iter().min().unwrap(), p.iter().max().unwrap());
            assert!(mx - mn <= 1, "uneven split {p:?}");
        }
    }

    #[test]
    fn paper_pass_thresholds() {
        // §3.4.2: "up to 6 bits, one pass … with more than 6 bits, two
        // passes … three passes with more than 12 bits, and four passes with
        // more than 18 bits."
        for (bits, expect_passes) in
            [(6u32, 1usize), (7, 2), (12, 2), (13, 3), (18, 3), (19, 4), (20, 4)]
        {
            assert_eq!(plan_passes(bits, 64).len(), expect_passes, "bits={bits}");
        }
    }

    #[test]
    fn strategies_resolve_to_plans() {
        let m = profiles::origin2000();
        let p = Strategy::PhashL1.plan(8_000_000, &m);
        assert_eq!(p.algorithm, Algorithm::PartitionedHash);
        assert_eq!(p.bits, 12);
        assert_eq!(p.pass_bits, vec![6, 6]);
        let r = Strategy::Radix8.plan(8_000_000, &m);
        assert_eq!(r.algorithm, Algorithm::Radix);
        assert_eq!(r.bits, 20);
        assert_eq!(r.pass_bits.len(), 4);
        let s = Strategy::SimpleHash.plan(8_000_000, &m);
        assert_eq!(s.bits, 0);
        assert!(s.pass_bits.is_empty());
    }

    #[test]
    fn all_strategies_have_names() {
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
        }
        assert_eq!(Strategy::ALL.len(), 9);
    }
}

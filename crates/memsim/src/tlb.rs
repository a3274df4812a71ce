//! A fully associative TLB with LRU replacement.
//!
//! Modern-for-1999 MMUs (§1 of the paper) hold translations for the ~64 most
//! recently used pages; a miss traps to the OS and is the single most
//! expensive memory event on the Origin2000 (228 ns — more than half a DRAM
//! access). The paper's radix-cluster analysis (§3.4.2) hinges on keeping the
//! number of concurrently written regions below the TLB entry count, so this
//! component is load-bearing for the reproduction.

use crate::config::TlbConfig;

const INVALID: u64 = u64::MAX;

/// Fully associative, true-LRU TLB. See module docs.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    page_shift: u32,
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// Fast path for the common sequential-access case.
    last_page: u64,
    /// Direct-mapped page → slot hint; trusted only while `pages[slot]`
    /// still holds the page, so stale entries need no invalidation.
    hint: Vec<u32>,
}

impl Tlb {
    /// Build an empty TLB with the given geometry.
    pub fn new(cfg: TlbConfig) -> Self {
        Self {
            cfg,
            page_shift: cfg.page.trailing_zeros(),
            pages: vec![INVALID; cfg.entries],
            stamps: vec![0; cfg.entries],
            clock: 0,
            last_page: INVALID,
            hint: vec![0; (4 * cfg.entries).next_power_of_two()],
        }
    }

    /// The geometry this TLB was built with.
    #[inline]
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Page number of an address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Look up the page containing `addr`. Returns `true` on hit; on miss the
    /// LRU entry is replaced (the OS refill the paper describes).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = self.page_of(addr);
        if page == self.last_page {
            // Repeated access to the same page: guaranteed hit and, because
            // it was the most recent touch, its stamp is already maximal —
            // no LRU bookkeeping needed.
            return true;
        }
        self.clock += 1;
        let h = page as usize & (self.hint.len() - 1);
        let slot = self.hint[h] as usize;
        let found = if self.pages[slot] == page {
            Some(slot)
        } else {
            self.pages.iter().position(|&p| p == page)
        };
        // A miss refills the least recent slot. Only an invalid slot has
        // stamp 0, so the first invalid slot goes first.
        let slot = found
            .unwrap_or_else(|| (0..self.pages.len()).min_by_key(|&i| self.stamps[i]).unwrap_or(0));
        self.pages[slot] = page;
        self.stamps[slot] = self.clock;
        self.hint[h] = slot as u32;
        self.last_page = page;
        found.is_some()
    }

    /// Whether a page is resident (no side effects).
    pub fn contains_page(&self, page: u64) -> bool {
        self.pages.contains(&page)
    }

    /// Invalidate the entry for one page, if present (used by the VM level:
    /// evicting a page from physical memory must unmap it).
    pub fn invalidate_page(&mut self, page: u64) {
        for i in 0..self.pages.len() {
            if self.pages[i] == page {
                self.pages[i] = INVALID;
                self.stamps[i] = 0;
            }
        }
        if self.last_page == page {
            self.last_page = INVALID;
        }
    }

    /// Invalidate all entries.
    pub fn invalidate(&mut self) {
        self.pages.fill(INVALID);
        self.stamps.fill(0);
        self.clock = 0;
        self.last_page = INVALID;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb4() -> Tlb {
        Tlb::new(TlbConfig::new(4, 4096))
    }

    #[test]
    fn hit_within_page_miss_across() {
        let mut t = tlb4();
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = tlb4();
        for p in 0..4u64 {
            assert!(!t.access(p * 4096));
        }
        // Touch page 0 to make page 1 the LRU.
        assert!(t.access(0));
        assert!(!t.access(4 * 4096)); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096)); // page 1 gone
    }

    #[test]
    fn round_robin_over_more_pages_than_entries_always_misses() {
        let mut t = tlb4();
        // 8 pages cycled repeatedly through a 4-entry LRU TLB: every access
        // misses (the classic LRU worst case the radix-cluster avoids).
        let mut misses = 0;
        for round in 0..3 {
            for p in 0..8u64 {
                if !t.access(p * 4096) {
                    misses += 1;
                }
            }
            let _ = round;
        }
        assert_eq!(misses, 24);
    }

    #[test]
    fn working_set_within_entries_hits_after_warmup() {
        let mut t = tlb4();
        for p in 0..4u64 {
            t.access(p * 4096);
        }
        for p in 0..4u64 {
            assert!(t.access(p * 4096));
        }
    }

    #[test]
    fn last_page_fast_path_does_not_corrupt_lru() {
        let mut t = tlb4();
        for p in 0..4u64 {
            t.access(p * 4096);
        }
        // Hammer page 3 via the fast path, then insert a new page: the LRU
        // victim must be page 0, not page 3.
        for _ in 0..100 {
            assert!(t.access(3 * 4096 + 8));
        }
        assert!(!t.access(9 * 4096));
        assert!(t.contains_page(3));
        assert!(!t.contains_page(0));
    }
}

//! An N-way set-associative cache model with true LRU replacement.
//!
//! Each set keeps its ways in recency order, most recent first, so the LRU
//! line is always the tail and a hit on the most recent line writes nothing.
//!
//! The model tracks *presence* only (tags), not contents — sufficient for
//! counting hits and misses, which is all the paper's methodology needs.
//! Writes are modelled as write-allocate (a write miss fetches the line),
//! matching both the R10000's caches and the cost model's treatment of
//! "storing the output" as incurring one miss per line.

use crate::config::CacheConfig;

/// Invalid-tag sentinel. Tags are line numbers (`addr >> line_shift`), which
/// for realistic address spaces never reach `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// A set-associative cache. See module docs.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    /// `sets * assoc` tags, row-major by set; each set most recent first,
    /// with its invalid ways (if any) at the tail.
    tags: Vec<u64>,
}

impl SetAssocCache {
    /// Build an empty (all-invalid) cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Self {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            assoc: cfg.assoc,
            tags: vec![INVALID; sets * cfg.assoc],
        }
    }

    /// The geometry this cache was built with.
    #[inline]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line number for an address (shared with callers that want to iterate
    /// over the lines an access spans).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access one cache line (by line number). Returns `true` on hit.
    /// On miss the tail of the set (an invalid way, else the LRU line) is
    /// replaced. Either way the line moves to the front of its set.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if ways[0] == line {
            return true;
        }
        // Linear scan; assoc is small (1–16).
        let hit = ways.iter().position(|&tag| tag == line);
        ways.copy_within(..hit.unwrap_or(self.assoc - 1), 1);
        ways[0] = line;
        hit.is_some()
    }

    /// Convenience: access by byte address (single line — the caller is
    /// responsible for splitting accesses that straddle a line boundary,
    /// as [`crate::MemorySystem::touch`] does).
    #[inline]
    pub fn access_addr(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr))
    }

    /// Whether a line is currently resident (no LRU update, no side effects).
    pub fn contains_line(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }

    /// Invalidate everything (used to guarantee the paper's "buffer is in
    /// memory but not in any cache" starting condition).
    pub fn invalidate(&mut self) {
        self.tags.fill(INVALID);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 lines of 16 bytes, 2-way: 2 sets.
        SetAssocCache::new(CacheConfig::new(64, 16, 2))
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access_addr(0));
        assert!(c.access_addr(0));
        assert!(c.access_addr(15)); // same line
        assert!(!c.access_addr(16)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line index even).
        assert!(!c.access_addr(0)); // line 0 -> set 0
        assert!(!c.access_addr(32)); // line 2 -> set 0
        assert!(c.access_addr(0)); // touch line 0 again: line 32 is now LRU
        assert!(!c.access_addr(64)); // line 4 -> set 0, evicts line 2 (addr 32)
        assert!(c.access_addr(0)); // still resident
        assert!(!c.access_addr(32)); // was evicted
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 lines of 16 bytes, direct mapped: 4 sets; lines 0 and 4 conflict.
        let mut c = SetAssocCache::new(CacheConfig::new(64, 16, 1));
        assert!(!c.access_addr(0));
        assert!(!c.access_addr(64)); // line 4, same set as line 0
        assert!(!c.access_addr(0)); // was evicted: conflict miss
    }

    #[test]
    fn sequential_scan_miss_rate_is_one_per_line() {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 32, 2));
        let mut misses = 0;
        for addr in (0..4096u64).step_by(4) {
            if !c.access_addr(addr) {
                misses += 1;
            }
        }
        assert_eq!(misses, 4096 / 32);
    }

    #[test]
    fn working_set_larger_than_cache_trashes() {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 32, 2));
        // Two full passes over 4 KiB (4x capacity): pass 2 misses every line
        // again because LRU evicted them.
        for _ in 0..2 {
            let mut misses = 0;
            for addr in (0..4096u64).step_by(32) {
                if !c.access_addr(addr) {
                    misses += 1;
                }
            }
            assert_eq!(misses, 128);
        }
    }

    #[test]
    fn working_set_within_cache_hits_after_warmup() {
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 32, 2));
        for addr in (0..1024u64).step_by(32) {
            c.access_addr(addr);
        }
        for addr in (0..1024u64).step_by(32) {
            assert!(c.access_addr(addr), "warm line {addr} should hit");
        }
    }

    #[test]
    fn invalidate_clears_residency() {
        let mut c = tiny();
        c.access_addr(0);
        assert!(c.contains_line(0));
        c.invalidate();
        assert!(!c.contains_line(0));
        assert!(!c.access_addr(0));
    }
}

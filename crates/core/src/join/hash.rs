//! Integer hash functions for radix clustering and bucket-chained tables.
//!
//! The paper radix-clusters "on the lower B bits of the integer hash-value
//! of a column" (§3.3.1). The hash function must be cheap (it runs once per
//! tuple per pass) and must spread keys over *all* 32 bits, because the
//! per-cluster hash tables of the partitioned hash-join take their bucket
//! index from the bits **above** the radix bits — see
//! [`crate::join::ChainedTable`].

/// A cheap 32-bit hash over join keys.
///
/// # Safety
/// `hash` must be a pure function of `key`. A clustering pass counts with
/// it and then scatters with it; a hash that answers differently the
/// second time misorders the clusters or panics. Memory safety does not
/// rest on it: the scatter checks every write against the slots its
/// worker counted.
pub unsafe trait KeyHash: Copy + Send + Sync {
    /// Hash a key.
    fn hash(&self, key: u32) -> u32;
}

/// The identity "hash". Valid for the paper's workload (uniformly
/// distributed unique random numbers already behave like hash values), and
/// useful in tests because cluster contents become predictable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityHash;

// SAFETY: a pure function of the key.
unsafe impl KeyHash for IdentityHash {
    #[inline(always)]
    fn hash(&self, key: u32) -> u32 {
        key
    }
}

/// Fibonacci (multiplicative) hashing: one multiply by 2^32/φ. The default
/// for all experiments — robust to structured keys at almost zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibHash;

// SAFETY: a pure function of the key.
unsafe impl KeyHash for FibHash {
    #[inline(always)]
    fn hash(&self, key: u32) -> u32 {
        key.wrapping_mul(0x9E37_79B1)
    }
}

/// The 32-bit murmur3 finalizer: slower than [`FibHash`] but a full
/// avalanche — used to check that results are hash-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MurmurHash;

// SAFETY: a pure function of the key.
unsafe impl KeyHash for MurmurHash {
    #[inline(always)]
    fn hash(&self, key: u32) -> u32 {
        let mut h = key;
        h ^= h >> 16;
        h = h.wrapping_mul(0x85EB_CA6B);
        h ^= h >> 13;
        h = h.wrapping_mul(0xC2B2_AE35);
        h ^= h >> 16;
        h
    }
}

/// The lower `bits` bits of a hash — the radix of §3.3.1. `bits` may be 0
/// (no clustering) up to 32.
#[inline(always)]
pub fn radix_of(hash: u32, bits: u32) -> u32 {
    debug_assert!(bits <= 32);
    if bits == 0 {
        0
    } else {
        hash & (u32::MAX >> (32 - bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_masks_low_bits() {
        assert_eq!(radix_of(0b1011_0110, 4), 0b0110);
        assert_eq!(radix_of(0xFFFF_FFFF, 0), 0);
        assert_eq!(radix_of(0xFFFF_FFFF, 32), 0xFFFF_FFFF);
        assert_eq!(radix_of(0x1234_5678, 8), 0x78);
    }

    #[test]
    fn hashes_are_deterministic_and_distinct_enough() {
        let keys: Vec<u32> = (0..10_000).collect();
        for spread in [
            keys.iter().map(|&k| FibHash.hash(k)).collect::<std::collections::HashSet<_>>(),
            keys.iter().map(|&k| MurmurHash.hash(k)).collect(),
        ] {
            assert_eq!(spread.len(), keys.len(), "hash must be injective on small ranges");
        }
    }

    #[test]
    fn fib_hash_spreads_sequential_keys_across_radix_buckets() {
        // Sequential keys land in distinct low-bit buckets reasonably evenly
        // under FibHash — the property radix clustering needs.
        let bits = 6;
        let mut counts = [0usize; 64];
        for k in 0..6400u32 {
            counts[radix_of(FibHash.hash(k), bits) as usize] += 1;
        }
        let (&min, &max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(min > 0, "every bucket used");
        assert!(max < 3 * 100, "no bucket more than 3x the mean");
    }

    #[test]
    fn murmur_differs_from_identity() {
        assert_ne!(MurmurHash.hash(1), 1);
        assert_eq!(IdentityHash.hash(12345), 12345);
    }
}

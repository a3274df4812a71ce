//! Zipf-distributed key generation — a skew ablation *extension*.
//!
//! The paper's workload is uniform and unique; real join columns are often
//! skewed, which stresses radix clustering (cluster sizes become uneven, so
//! the "cluster fits cache level X" guarantees hold only on average). The
//! bench suite uses this generator to check how gracefully the algorithms
//! degrade (`repro skew`).

use monet_core::join::Bun;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Samples ranks `1..=n` with probability ∝ `1/rank^s` via an inverted CDF
/// (exact; O(n) setup, O(log n) per sample).
#[derive(Debug)]
pub struct ZipfGenerator {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfGenerator {
    /// Build a generator over `n` distinct values with exponent `s ≥ 0`
    /// (`s = 0` is uniform; `s ≈ 1` is classic Zipf).
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for p in cdf.iter_mut() {
            *p /= total;
        }
        Self { cdf, rng: StdRng::seed_from_u64(seed) }
    }

    /// Number of distinct ranks.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `0..n` (0 = most frequent).
    pub fn sample(&mut self) -> usize {
        let u: f64 = self.rng.random();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }

    /// A BAT of `len` tuples whose tails are Zipf-sampled from a shuffled
    /// key dictionary (so the hot key is not numerically smallest).
    pub fn buns(&mut self, len: usize, key_seed: u64) -> Vec<Bun> {
        let mut dict: Vec<u32> =
            (0..self.domain() as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        super::gen::shuffle(&mut dict, key_seed);
        (0..len).map(|i| Bun::new(i as u32, dict[self.sample()])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let mut g = ZipfGenerator::new(1000, 1.0, 7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[g.sample()] += 1;
        }
        // Rank 0 ≈ 100000/H(1000) ≈ 13% of the mass; rank 500 far less.
        assert!(counts[0] > 8_000, "rank-0 count {}", counts[0]);
        assert!(counts[0] > 50 * counts[500].max(1));
        // Monotone on average: top-10 outweighs ranks 100..110 hugely.
        let top: usize = counts[..10].iter().sum();
        let mid: usize = counts[100..110].iter().sum();
        assert!(top > 5 * mid);
    }

    #[test]
    fn s_zero_is_uniform() {
        let mut g = ZipfGenerator::new(100, 0.0, 3);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[g.sample()] += 1;
        }
        for &c in &counts {
            assert!((600..=1400).contains(&c), "uniform bucket had {c}");
        }
    }

    #[test]
    fn buns_use_whole_domain_and_deterministic() {
        let mut a = ZipfGenerator::new(50, 1.0, 11);
        let mut b = ZipfGenerator::new(50, 1.0, 11);
        let ba = a.buns(1000, 1);
        let bb = b.buns(1000, 1);
        assert_eq!(ba, bb);
        let distinct: std::collections::HashSet<u32> = ba.iter().map(|t| t.tail).collect();
        assert!(distinct.len() > 25, "should draw much of the domain");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_rejected() {
        ZipfGenerator::new(0, 1.0, 0);
    }
}

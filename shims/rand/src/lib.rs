#![warn(missing_docs)]

//! # rand (offline shim)
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal, dependency-free stand-in for the tiny slice of the `rand` API the
//! `workload` crate uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! and the [`RngExt`] extension methods `random` / `random_range`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — not the real
//! `StdRng` (ChaCha12), but every consumer in this workspace only requires
//! determinism per seed and decent equidistribution, both of which
//! xoshiro256++ provides. Nothing here is cryptographic.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    //! Concrete generator types (mirrors `rand::rngs`).
    pub use crate::StdRng;
}

/// Seedable generators (mirrors `rand::SeedableRng`, `seed_from_u64` only).
pub trait SeedableRng: Sized {
    /// Construct deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard generator: xoshiro256++.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed with SplitMix64, as the xoshiro authors recommend.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }
}

impl StdRng {
    /// The core 64-bit step (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types samplable uniformly over their whole domain (mirrors the `Standard`
/// distribution of `rand`). `f64` samples uniformly in `[0, 1)`.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample(rng: &mut StdRng) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i32, i64);

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> Self {
        // 53 random mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Standard, const N: usize> Standard for [T; N] {
    fn sample(rng: &mut StdRng) -> Self {
        std::array::from_fn(|_| T::sample(rng))
    }
}

/// Ranges samplable uniformly (mirrors `rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

/// `x % span` for a span in `1..=2^64`, in 64-bit arithmetic: the one span
/// wider than `u64` is the full 64-bit domain, which `x` already covers.
fn reduce(x: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => (x % span) as u128,
        Err(_) => x as u128,
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i32, i64);

/// Extension methods on generators (mirrors `rand::Rng`, under the name this
/// workspace imports).
pub trait RngExt {
    /// Draw a value uniformly over `T`'s whole domain (`[0, 1)` for `f64`).
    fn random<T: Standard>(&mut self) -> T;

    /// Draw a value uniformly from `range`. Panics on an empty range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl RngExt for StdRng {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: i32 = rng.random_range(-5..=5);
            assert!((-5..=5).contains(&v));
            let u: usize = rng.random_range(0..7);
            assert!(u < 7);
        }
    }

    /// `random_range` against the 128-bit reduction it replaced, on the
    /// same draw.
    fn agrees_with_u128_reduction<T: Into<i128>>(
        lo: T,
        span: u128,
        draw: impl Fn(&mut StdRng) -> T,
    ) {
        let lo = lo.into();
        let mut rng = StdRng::seed_from_u64(span as u64 ^ lo as u64);
        for _ in 0..10_000 {
            let x = rng.clone().next_u64();
            assert_eq!(draw(&mut rng).into(), lo + (x as u128 % span) as i128, "span {span}");
        }
    }

    #[test]
    fn reduction_matches_the_u128_path() {
        for span in [1u128, 7, 50, 1 << 32, u64::MAX as u128, 1 << 64] {
            for x in [0, 1, 6, 49, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
                assert_eq!(reduce(x, span), x as u128 % span, "x {x} span {span}");
            }
        }
        agrees_with_u128_reduction(1, 50, |r| r.random_range(1..=50i32));
        agrees_with_u128_reduction(9_000, 2_000, |r| r.random_range(9_000..11_000i32));
        agrees_with_u128_reduction(0u32, 512, |r| r.random_range(0..512u32));
        agrees_with_u128_reduction(0u8, 7, |r| r.random_range(0..7u8));
        agrees_with_u128_reduction(-5, 11, |r| r.random_range(-5..=5i32));
        agrees_with_u128_reduction(i32::MIN, 1 << 32, |r| r.random_range(i32::MIN..=i32::MAX));
        agrees_with_u128_reduction(i64::MIN, 1 << 63, |r| r.random_range(i64::MIN..0));
        agrees_with_u128_reduction(i64::MIN, 1 << 64, |r| r.random_range(i64::MIN..=i64::MAX));
        agrees_with_u128_reduction(0u64, u64::MAX as u128, |r| r.random_range(0..u64::MAX));
        agrees_with_u128_reduction(0u64, 1 << 64, |r| r.random_range(0..=u64::MAX));
    }

    #[test]
    fn f64_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn int_buckets_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            buckets[rng.random_range(0..10usize)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..=12_000).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn array_sampling() {
        let mut rng = StdRng::seed_from_u64(4);
        let a: [u32; 4] = rng.random();
        let b: [u32; 4] = rng.random();
        assert_ne!(a, b);
    }
}

#![warn(missing_docs)]

//! # proptest (offline shim)
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal stand-in for the slice of the `proptest` API its test suites use:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map`, range and tuple
//! strategies, [`collection::vec`], [`any`], [`ProptestConfig`], and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking** — a failing case panics with its case number and the
//!   per-test RNG is deterministic (seeded from the test's name), so failures
//!   reproduce exactly but are not minimized.
//! * `prop_assert!` / `prop_assert_eq!` are plain `assert!` / `assert_eq!`
//!   (they abort the test rather than returning a `TestCaseError`).

use std::marker::PhantomData;
use std::ops::Range;

pub mod prelude {
    //! The usual `use proptest::prelude::*;` surface.
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The deterministic per-test generator (SplitMix64, seeded from the test
/// name so every test gets an independent, reproducible stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a hash).
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test values (the shim keeps only the generation half of
/// proptest's `Strategy`; there is no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng), self.3.generate(rng))
    }
}

/// Types with a canonical whole-domain strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start < self.size.end {
                self.size.generate(rng)
            } else {
                self.size.start
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of `element`-generated values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Shim for proptest's `prop_assert!`: plain `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Shim for proptest's `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Shim for proptest's `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// The `proptest!` block macro: expands each contained test function into a
/// `#[test]` that runs `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $(
          $(#[$meta:meta])*
          fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __run = || $body;
                    if let Err(e) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)) {
                        eprintln!(
                            "proptest shim: {} failed at case {}/{} (deterministic; no shrinking)",
                            stringify!($name), __case + 1, __cfg.cases,
                        );
                        ::std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pairs(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..8, 0u64..4096), 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in -5i32..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(v in pairs(40), n in 1usize..10) {
            prop_assert!(!v.is_empty() && v.len() < 40);
            prop_assert!(v.iter().all(|&(a, b)| a < 8 && b < 4096));
            let doubled = (0usize..n).generate_check();
            let _ = doubled;
        }

        #[test]
        fn any_generates(x in any::<u32>(), v in prop::collection::vec(any::<u32>(), 0..5)) {
            let _ = x;
            prop_assert!(v.len() < 5);
        }
    }

    trait GenerateCheck {
        fn generate_check(&self) -> usize;
    }

    impl GenerateCheck for std::ops::Range<usize> {
        fn generate_check(&self) -> usize {
            self.end - self.start
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn prop_map_applies() {
        let s = (0u32..10).prop_map(|x| x * 2);
        let mut rng = crate::TestRng::from_name("map");
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert_eq!(v % 2, 0);
            assert!(v < 20);
        }
    }
}

//! Offline stand-in for `proptest`.
//!
//! Provides the subset of the proptest API this workspace's test suites
//! use: the [`proptest!`] macro (with optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]`), `pat in
//! strategy` bindings, [`prop_assert!`]/[`prop_assert_eq!`], range and
//! tuple strategies, [`collection::vec`], [`any`], [`Just`], and
//! [`Strategy::prop_map`].
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! generated from a fixed per-test seed (fully deterministic, no
//! persisted regressions), and a failing case is not shrunk. It is
//! reported by its case index and a replay line,
//! `SPI_CHAOS_SEED=<case>` ([`CHAOS_SEED_VAR`]), which runs that case
//! alone. That trades minimality of counterexamples for zero
//! dependencies, which is the right trade in a registry-less build
//! environment.

use std::ops::{Range, RangeInclusive};

/// Deterministic generator handed to strategies; SplitMix64 seeded from
/// the test name and case index.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator for one test case, mixing the test name so
    /// distinct tests explore distinct streams.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-`proptest!` block configuration (case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps offline suites quick
        // while still exercising a meaningful spread of inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms produced values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
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

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
}

/// Types with a canonical unconstrained strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize);

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Unconstrained strategy for any [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vector of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            assert!(self.size.start < self.size.end, "empty vec size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Asserts a condition inside a property test (panics on failure; the
/// offline shim performs no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Environment variable pinning property tests to one case index:
/// `SPI_CHAOS_SEED=<case> cargo test …` replays exactly the case a
/// failure report printed, skipping all others.
pub const CHAOS_SEED_VAR: &str = "SPI_CHAOS_SEED";

/// Reads the [`CHAOS_SEED_VAR`] case override, if any.
pub fn pinned_case() -> Option<u32> {
    std::env::var(CHAOS_SEED_VAR).ok()?.trim().parse().ok()
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (@cfg $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let (first, last) = match $crate::pinned_case() {
                ::std::option::Option::Some(c) => (c, c),
                ::std::option::Option::None => (0, config.cases.saturating_sub(1)),
            };
            for case in first..=last {
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $p = $crate::Strategy::generate(&($s), &mut __rng);)+
                    $body
                }));
                if let ::std::result::Result::Err(cause) = outcome {
                    ::std::eprintln!(
                        "proptest case {} of `{}` failed\nreplay: {}={} cargo test {} -- --nocapture",
                        case, stringify!($name), $crate::CHAOS_SEED_VAR, case, stringify!($name),
                    );
                    ::std::panic::resume_unwind(cause);
                }
            }
        }
    )*};
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` running the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!(@cfg $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!(@cfg $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Any, Just, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTED_RUNS: AtomicU32 = AtomicU32::new(0);

    // Declared without #[test] so the pin test below can drive it.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        fn counted(_x in 0u32..10) {
            COUNTED_RUNS.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn case_loop_respects_chaos_seed_pin() {
        COUNTED_RUNS.store(0, Ordering::Relaxed);
        counted();
        let expect = match crate::pinned_case() {
            Some(_) => 1,
            None => 5,
        };
        assert_eq!(COUNTED_RUNS.load(Ordering::Relaxed), expect);
    }

    fn pair() -> impl Strategy<Value = (u32, u32)> {
        (1u32..5, 10u32..20)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples((a, b) in pair(), flag in any::<bool>()) {
            prop_assert!((1..5).contains(&a));
            prop_assert!((10..20).contains(&b));
            let _ = flag;
        }

        #[test]
        fn vec_and_map(
            v in prop::collection::vec(0usize..9, 2..6).prop_map(|mut v| { v.sort(); v }),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}

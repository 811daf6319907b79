//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim provides
//! the subset of proptest the suite's tests use: the [`Strategy`] trait
//! with ranges, tuples, [`collection::vec`] and [`Strategy::prop_map`];
//! `any::<T>()`; and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_assume!`] macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **no shrinking** — a failing case panics with the generated inputs
//!   in the panic message (via the assert macros) but is not minimized;
//! * **fixed deterministic seeding** — each test derives its RNG seed
//!   from the test name, so failures reproduce exactly; set
//!   `PROPTEST_CASES` to change the case count without recompiling.

#![forbid(unsafe_code)]

use rand::prelude::*;

pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest, Just, Strategy};

    /// Mirror of proptest's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

pub mod test_runner {
    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }

        /// Case count, honouring the `PROPTEST_CASES` env override.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test RNG (seeded from the test name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: rand::StdRng,
    }

    impl TestRng {
        /// RNG for the named test: same name, same stream, every run.
        pub fn for_test(name: &str) -> TestRng {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            use rand::SeedableRng;
            TestRng {
                inner: rand::StdRng::seed_from_u64(h),
            }
        }
    }

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

use test_runner::TestRng;

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Full-range strategy for a type, proptest's `any::<T>()`.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The [`any`] strategy.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Sizes accepted by [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for vectors of `elem` values with length in `size`.
    pub fn vec<S: Strategy, R: SizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Assert inside a proptest case (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
///
/// Expands to an early `return` from the case closure, so the case
/// counts as passed (real proptest retries; for the suite's generators
/// the discard rate is low enough that this doesn't matter).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `config.cases` random
/// instantiations of its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);
     $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for _case in 0..config.resolved_cases() {
                    $( let $pat = $crate::Strategy::generate(&($strat), &mut rng); )+
                    (move || $body)();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = (0u8..4).generate(&mut rng);
            assert!(v < 4);
            let (a, b) = ((1usize..=5), (0.25f64..0.75)).generate(&mut rng);
            assert!((1..=5).contains(&a));
            assert!((0.25..0.75).contains(&b));
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let mut rng = crate::test_runner::TestRng::for_test("compose");
        let strat = prop::collection::vec(0u8..4, 3..=7).prop_map(|v| v.len());
        for _ in 0..200 {
            let n = strat.generate(&mut rng);
            assert!((3..=7).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_runs_cases(x in 0u32..100, v in prop::collection::vec(any::<u8>(), 0..10)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 10);
            prop_assume!(x > 0); // exercises the early-return path
            prop_assert_eq!(x, x, "x must equal itself, got {}", x);
        }

        #[test]
        fn macro_with_tuple_pattern((a, b) in (0u8..4, 0u16..9)) {
            prop_assert!(a < 4 && b < 9);
        }
    }
}

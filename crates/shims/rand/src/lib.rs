//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! ships a minimal, API-compatible subset of `rand` 0.8 covering exactly
//! what the suite uses: [`Rng::gen`], [`Rng::gen_range`],
//! [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`], and [`StdRng`].
//! All generators here are deterministic; none read OS entropy.
//!
//! The numeric streams do **not** match upstream `rand` bit-for-bit
//! (nothing in the suite depends on that — seeds only pin determinism
//! within this codebase), but the statistical behaviour is sound:
//! `StdRng` is SplitMix64, and `rand_chacha`'s `ChaCha8Rng` (a sibling
//! shim) is a faithful ChaCha8 implementation.

#![forbid(unsafe_code)]

pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng, StdRng};
}

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, `rand`-style.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value uniformly; supported output types are the
    /// integer primitives and `f64`/`f32` in `[0, 1)`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from a range (`low..high` or `low..=high`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of [0,1]");
        f64_from_bits(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform `[0, 1)` double from a random 64-bit word (53-bit mantissa).
#[inline]
fn f64_from_bits(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable by [`Rng::gen`] from the full uniform distribution.
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        f64_from_bits(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24-bit mantissa construction: every value k/2^24 is exactly
        // representable, so the result stays strictly below 1.0 (a
        // 53-bit f64 cast to f32 can round up to exactly 1.0).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Sample one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer sampling in `[0, bound)` by rejection (Lemire-style
/// widening multiply is overkill here; rejection keeps it obviously
/// correct).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "empty range");
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t; // full-width range
                }
                (lo as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + f64_from_bits(rng.next_u64()) * (self.end - self.start);
        // start + frac*(end-start) can round up to exactly `end`; the
        // contract is half-open.
        v.min(self.end.next_down())
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range");
        let frac = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        let v = self.start + frac * (self.end - self.start);
        v.min(self.end.next_down())
    }
}

/// The default generator: SplitMix64 — tiny state, passes BigCrush for
/// the purposes this suite has (workload synthesis, not cryptography).
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        StdRng { state: seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(0..4u8);
            assert!(v < 4);
            let w = rng.gen_range(1..4u8);
            assert!((1..4).contains(&w));
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.gen_range(3usize..=9);
            assert!((3..=9).contains(&u));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[rng.gen_range(0..4usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.1)).count();
        assert!((8_500..11_500).contains(&hits), "p=0.1 gave {hits}/100000");
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

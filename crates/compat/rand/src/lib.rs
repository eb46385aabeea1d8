//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the minimal subset of the `rand` 0.8 API that the
//! signal-synthesis crates use: [`rngs::StdRng`], [`SeedableRng`], and
//! [`Rng`] with `gen_range` / `gen_bool`. The generator is xoshiro256++
//! seeded through SplitMix64 — deterministic per seed, which is all the
//! dataset builders rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from `self` using `rng`.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore + Sized {
    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + Sized> Rng for T {}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (self.start as i128 + r as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range in gen_range");
                let span = (e as i128 - s as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (s as i128 + r as i128) as $t
            }
        }
    )*};
}

int_ranges!(i64, u64, i32, u32, usize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                self.start + (unit_f64(rng.next_u64()) as $t) * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (s, e) = (*self.start(), *self.end());
                s + (unit_f64(rng.next_u64()) as $t) * (e - s)
            }
        }
    )*};
}

float_ranges!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `rand`'s
    /// `StdRng`; the algorithm differs but every use in this workspace
    /// only needs seed-determinism, not bit-compatibility).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the xoshiro reference recommends.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0i64..1000), b.gen_range(0i64..1000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&f));
            let i = r.gen_range(5i64..=8);
            assert!((5..=8).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }
}

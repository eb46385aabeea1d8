//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this shim implements
//! the subset of the proptest API the workspace's property tests use:
//! the [`Strategy`] trait over ranges / tuples / collections, the
//! `prop::{collection, sample, option}` modules, [`any`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — a failing case panics with the generated inputs left
//!   to the assertion message;
//! * generation is driven by a deterministic RNG seeded from the test's
//!   module path, so failures reproduce across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Configuration for a property test run.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to execute.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Drives one property test: deterministic RNG + case budget.
#[derive(Debug)]
pub struct TestRunner {
    rng: StdRng,
    cases: u32,
}

impl TestRunner {
    /// Creates a runner seeded from `name` (usually the test path).
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Self {
            rng: StdRng::seed_from_u64(seed),
            cases: config.cases,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The runner's RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f` (mirrors proptest's
    /// `Strategy::prop_map`).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
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

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

/// Boxes a strategy for heterogeneous sets (used by [`prop_oneof!`]).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Union over `options`; each generate picks one uniformly.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof of empty set");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self.options[rng.gen_range(0..self.options.len())].generate(rng)
    }
}

impl<T> std::fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Union")
            .field("options", &self.options.len())
            .finish()
    }
}

/// Picks uniformly among strategies that share a value type (mirrors
/// proptest's `prop_oneof!`; equal weights only).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(i64, u64, i32, u32, usize, f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Strategy for [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Generates an arbitrary value of `T` (only the types the workspace's
/// tests request are implemented).
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

/// Strategy modules mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy};
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy producing `Vec`s of values from `element`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// Vector of `size` elements drawn from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let n = if self.size.min >= self.size.max {
                    self.size.min
                } else {
                    rng.gen_range(self.size.min..=self.size.max)
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy choosing uniformly from a fixed set.
        #[derive(Debug, Clone)]
        pub struct Select<T>(Vec<T>);

        /// Picks one of `options` uniformly.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select of empty set");
            Select(options)
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut StdRng) -> T {
                self.0[rng.gen_range(0..self.0.len())].clone()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy producing `Some` three times out of four.
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S>(S);

        /// Wraps `inner`'s values in `Option`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                rng.gen_bool(0.75).then(|| self.0.generate(rng))
            }
        }
    }
}

/// Inclusive element-count bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Minimum length.
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

/// Asserts a property inside [`proptest!`]; panics (no shrinking) on
/// failure.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside [`proptest!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __runner = $crate::TestRunner::new(
                    $cfg,
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__runner.cases() {
                    $(let $arg = $crate::Strategy::generate(&($strat), __runner.rng());)*
                    $body
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_in_bounds(v in prop::collection::vec(0i64..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for x in v {
                prop_assert!((0..10).contains(&x));
            }
        }

        #[test]
        fn select_picks_members(p in prop::sample::select(vec![1i64, 2, 4, 5, 8])) {
            prop_assert!([1i64, 2, 4, 5, 8].contains(&p));
        }

        #[test]
        fn map_and_oneof_compose(
            v in prop_oneof![
                (0i64..10).prop_map(|x| x * 2),
                prop::sample::select(vec![100i64, 200]),
            ],
        ) {
            prop_assert!((v % 2 == 0 && v < 20) || v == 100 || v == 200);
        }

        #[test]
        fn tuples_and_options(
            pair in (0i64..100, 1i64..50),
            o in prop::option::of(-1.0f32..1.0),
            b in any::<bool>(),
        ) {
            prop_assert!(pair.0 < 100 && pair.1 >= 1);
            if let Some(f) = o {
                prop_assert!((-1.0..1.0).contains(&f));
            }
            prop_assert!(usize::from(b) <= 1);
        }
    }
}

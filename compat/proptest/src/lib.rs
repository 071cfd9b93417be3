//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`proptest!`] macro, range/tuple/`Just`/`any` strategies,
//! `prop::collection::vec`, `prop::array::uniform2`, [`prop_oneof!`], and
//! the `prop_assert*` macros. Inputs are generated from a deterministic
//! per-test RNG (seeded from the test name), so failures are reproducible
//! by re-running the test. No shrinking: a failing case panics with the
//! standard assertion message, which for these tests already prints the
//! offending values.

use std::ops::{Range, RangeInclusive};

/// Configuration accepted via `#![proptest_config(...)]`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic generator driving input generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name, so every test owns a stable,
    /// distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one input.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter applying a function to every generated value
/// ([`Strategy::prop_map`]).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// `Strategy` is object-safe; boxed strategies are strategies too.
impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a full-domain uniform strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws a uniform value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

/// Strategy over the full domain of `T` (proptest's `any::<T>()`).
pub struct Any<T>(std::marker::PhantomData<T>);

/// Returns the full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, usize, i32, i64);

impl Strategy for Range<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for RangeInclusive<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        if lo == 0 && hi == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(hi - lo + 1)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F)
);

/// Picks uniformly among boxed alternative strategies ([`prop_oneof!`]).
pub struct Union<V> {
    alternatives: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `alternatives` is empty.
    pub fn new(alternatives: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one arm"
        );
        Union { alternatives }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.alternatives.len() as u64) as usize;
        self.alternatives[i].generate(rng)
    }
}

/// Strategy modules mirroring proptest's `prop::` namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Acceptable size arguments for [`vec()`]: a fixed size or a range.
        pub trait IntoSize {
            /// Draws a concrete length.
            fn pick(&self, rng: &mut TestRng) -> usize;
        }

        impl IntoSize for usize {
            fn pick(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl IntoSize for Range<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                Strategy::generate(self, rng)
            }
        }

        impl IntoSize for RangeInclusive<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                Strategy::generate(self, rng)
            }
        }

        /// Strategy producing `Vec`s of inputs from `element`.
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        /// `prop::collection::vec(element, len_or_range)`.
        pub fn vec<S: Strategy, L: IntoSize>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }

        impl<S: Strategy, L: IntoSize> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// `Option` strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// Strategy producing `Option`s of inputs from `element`.
        pub struct OptionStrategy<S>(S);

        /// `prop::option::of(element)`: `None` a quarter of the time,
        /// `Some` of the element strategy otherwise.
        pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
            OptionStrategy(element)
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64() >> 62 == 0 {
                    None
                } else {
                    Some(self.0.generate(rng))
                }
            }
        }
    }

    /// Fixed-size array strategies.
    pub mod array {
        use super::super::{Strategy, TestRng};

        macro_rules! uniform_array {
            ($($fn_name:ident, $struct_name:ident, $n:expr;)*) => {$(
                /// Strategy producing `[T; N]` from one element strategy.
                pub struct $struct_name<S>(S);

                /// All `N` elements drawn from `element`.
                pub fn $fn_name<S: Strategy>(element: S) -> $struct_name<S> {
                    $struct_name(element)
                }

                impl<S: Strategy> Strategy for $struct_name<S> {
                    type Value = [S::Value; $n];
                    fn generate(&self, rng: &mut TestRng) -> Self::Value {
                        std::array::from_fn(|_| self.0.generate(rng))
                    }
                }
            )*};
        }

        uniform_array! {
            uniform2, Uniform2, 2;
            uniform3, Uniform3, 3;
            uniform4, Uniform4, 4;
        }
    }
}

/// The canonical glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Just,
        ProptestConfig, Strategy,
    };
}

/// Assert within a property (panics with the values on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniformly picks one of several alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(Box::new($alt) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// Defines property tests: each `fn` runs `cases` times with inputs drawn
/// from the strategies after `in`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                let ($($pat,)+) = ($($crate::Strategy::generate(&($strat), &mut rng),)+);
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in 0.5f64..2.5, z in 1u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..2.5).contains(&y));
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn tuples_and_vecs(
            (a, b) in (0u32..5, 10u32..20),
            v in prop::collection::vec(0.0f64..1.0, 0..8),
            arr in prop::array::uniform2(-1.0f64..1.0),
        ) {
            prop_assert!(a < 5 && (10..20).contains(&b));
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
            prop_assert!(arr.iter().all(|&x| (-1.0..1.0).contains(&x)));
        }

        #[test]
        fn oneof_and_just(pick in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1u8..=3).contains(&pick));
        }
    }

    #[test]
    fn any_u64_varies() {
        let mut rng = crate::TestRng::deterministic("any_u64_varies");
        let s = crate::any::<u64>();
        let a = s.generate(&mut rng);
        let b = s.generate(&mut rng);
        assert_ne!(a, b);
    }
}

//! Offline shim for the `proptest` API subset used by this workspace.
//!
//! A deterministic mini property-testing harness: each `proptest!` test
//! runs a fixed number of cases, with inputs generated from a seed
//! derived from the test name and case index — fully reproducible, no
//! shrinking. Failures report the case number so a failing input can be
//! regenerated.

use std::ops::{Range, RangeInclusive};

/// Number of generated cases per property.
pub const CASES: u32 = 64;

/// The deterministic generator driving value generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the generator for one `(test, case)` pair.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Produces the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty bound");
        self.next_u64() % bound
    }
}

/// A failed test case, produced by the `prop_assert*` macros or
/// [`TestCaseError::fail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed_gen(self) -> BoxedGen<Self::Value>
    where
        Self: Sized + 'static,
    {
        let s = self;
        Box::new(move |rng| s.generate(rng))
    }
}

/// A type-erased generator function.
pub type BoxedGen<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Strategy returning a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
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

/// Uniform choice among equally-weighted alternatives (see
/// [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedGen<V>>,
}

impl<V> Union<V> {
    /// Creates a union over the given arms.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty.
    pub fn new(arms: Vec<BoxedGen<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let arm = rng.below(self.arms.len() as u64) as usize;
        (self.arms[arm])(rng)
    }
}

/// Strategy for "any value" of a primitive type (see [`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Creates the [`Any`] strategy for `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                // Mix edge cases in (min/max/zero show up often in bugs).
                match rng.below(16) {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX,
                    2 => 0 as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let value = self.start + unit * (self.end - self.start);
        // `start + unit * span` can round up to `end`; clamp back inside.
        if value < self.end {
            value
        } else {
            self.start
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        start + unit * (end - start)
    }
}

/// Simple pattern strategies: `&str` generates strings. Only the
/// `.{min,max}` pattern family the workspace uses is supported; anything
/// else panics loudly rather than silently generating the wrong shape.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (min, max) = parse_dot_repetition(self).unwrap_or_else(|| {
            panic!("unsupported string pattern {self:?}: the shim supports `.{{min,max}}` only")
        });
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| {
                // Mostly ASCII, some multi-byte chars to exercise UTF-8
                // handling.
                match rng.below(8) {
                    0 => char::from_u32(0x00A1 + rng.below(0x500) as u32).unwrap_or('ß'),
                    _ => (0x20 + rng.below(0x5F) as u8) as char,
                }
            })
            .collect()
    }
}

fn parse_dot_repetition(pattern: &str) -> Option<(usize, usize)> {
    let inner = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (min, max) = inner.split_once(',')?;
    Some((min.trim().parse().ok()?, max.trim().parse().ok()?))
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Collection strategies, under the `prop::collection` path like the
/// real crate.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};

        /// Strategy producing `Vec`s of `element` with a length drawn
        /// from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.size.pick(rng);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// A length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min + 1) as u64) as usize
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any,
        BoxedGen, Just, Strategy, TestCaseError, TestRng, Union,
    };
}

/// Defines property tests. Each `#[test]` function runs [`CASES`]
/// deterministic cases; its body may use the `prop_assert*` macros and
/// `return Err(TestCaseError::...)`, as with the real crate.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                for case in 0..$crate::CASES {
                    let mut prop_rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut prop_rng);)+
                    let result = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let Err(e) = result {
                        panic!("property `{}` failed at case {case}: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking directly) like the real crate.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed_gen($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_generation() {
        let s = prop::collection::vec(0u64..100, 1..10);
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn string_pattern_lengths() {
        let mut rng = TestRng::for_case("s", 0);
        for _ in 0..200 {
            let s = ".{0,16}".generate(&mut rng);
            assert!(s.chars().count() <= 16);
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1), Just(2), Just(3)];
        let mut rng = TestRng::for_case("cover", 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    proptest! {
        #[test]
        fn macro_end_to_end(x in 1u32..10, items in prop::collection::vec(any::<i64>(), 0..5)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(items.len() <= 4);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }

        #[test]
        fn macro_supports_early_err(flag in any::<bool>()) {
            if std::hint::black_box(false) {
                return Err(TestCaseError::fail("unreachable"));
            }
            prop_assert!(true);
            let _ = flag;
        }
    }

    #[test]
    fn macro_tests_run() {
        macro_end_to_end();
        macro_supports_early_err();
    }
}

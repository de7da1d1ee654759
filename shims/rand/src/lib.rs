//! Offline shim for the `rand` API subset used by this workspace:
//! a seedable deterministic generator with `gen_range`/`gen_bool`.
//!
//! The underlying stream is SplitMix64 — not the real `StdRng`
//! (ChaCha12), but the workspace only relies on determinism per seed and
//! reasonable statistical quality, never on a specific stream.

/// A generator that can be constructed from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Creates a generator seeded from `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types from which a uniform sample can be drawn over a range.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Produces the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Maps 64 random bits to a float uniform in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// `bits % span` for 64 random bits. Every bounded range of a type up
/// to 64 bits wide spans less than 2^64, so the division is a 64-bit
/// one; only the full-width inclusive ranges (span exactly 2^64) take
/// the 128-bit remainder, a library call.
fn reduce(bits: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => bits % span,
        Err(_) => (u128::from(bits) % span) as u64,
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add(reduce(rng.next_u64(), span) as $t)
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add(reduce(rng.next_u64(), span) as $t)
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng { state }
        }
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(1i64..=4);
            assert!((1..=4).contains(&w));
            let f = rng.gen_range(0.5f64..2.0);
            assert!((0.5..2.0).contains(&f));
        }
    }

    /// The workspace's data streams are functions of this sampler, so
    /// the 64-bit fast path must return what the 128-bit formula it
    /// replaced returns, draw for draw.
    #[test]
    fn sampler_matches_the_128_bit_formula() {
        macro_rules! check {
            ($t:ty: $($range:expr),+) => {$({
                let mut new = StdRng::seed_from_u64(2019);
                let mut old = StdRng::seed_from_u64(2019);
                let (start, end, inclusive): ($t, $t, u128) = $range;
                let span = (end as u128).wrapping_sub(start as u128) + inclusive;
                for draw in 0..10_000 {
                    let got = if inclusive == 1 {
                        new.gen_range(start..=end)
                    } else {
                        new.gen_range(start..end)
                    };
                    let want = start.wrapping_add((old.next_u64() as u128 % span) as $t);
                    assert_eq!(got, want, "{} draw {draw} of {:?}", stringify!($t), $range);
                }
            })+};
        }
        macro_rules! check_type {
            ($($t:ty),*) => {$(
                check!($t: (0, 1, 0), (1, 4, 1), (<$t>::MIN, <$t>::MAX, 0), (<$t>::MIN, <$t>::MAX, 1));
            )*};
        }
        check_type!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
        check!(u32: (100_000, 10_000_000, 0));
        check!(u64: (100_000, 10_000_000, 0), (0, u64::MAX, 1));
        check!(i64: (-10_000_000, -100_000, 1), (i64::MIN, i64::MAX, 1));
        check!(usize: (0, 30, 0), (0, 5, 0));
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn distribution_covers_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so this workspace ships a small, dependency-free replacement that
//! covers exactly the API surface the other crates use: [`Rng`]
//! (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], and [`seq::SliceRandom::shuffle`].
//!
//! The generator is SplitMix64 — fast, well-distributed for simulation
//! workloads, and fully deterministic from its 64-bit seed, which is all
//! the corpus synthesis, model training, and traffic generation here
//! require. Streams differ from upstream `rand`'s ChaCha-based `StdRng`,
//! and consumers rely on determinism and uniformity, never on a specific
//! stream, with one exception. SplitMix64 is counter-based: its state
//! steps by one constant per draw, so [`rngs::StdRng::advance`] skips
//! `k` draws in O(1). `trafgen` draws each flow's key on demand from the
//! position an eager flow table would have reached, which relies on that
//! and on `gen_bool`, `gen::<u32>` and `gen_range` over an integer range
//! each taking exactly one draw (none of them is rejection-sampled here).
//! A generator without both properties would change every trace.

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Types samplable uniformly over their whole domain (`rng.gen::<T>()`).
pub trait Standard: Sized {
    /// Draws one value.
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

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Range-like arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = rng.next_u64() as u128 % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = rng.next_u64() as u128 % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit: $t = Standard::sample(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let unit: $t = Standard::sample(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// User-facing sampling interface, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample over `T`'s whole domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        let unit: f64 = Standard::sample(self);
        unit < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Deterministic construction from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;

    /// Non-deterministic construction (time-derived; no OS entropy in the
    /// offline environment).
    fn from_entropy() -> Self {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        Self::seed_from_u64(t)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        /// Skips the next `draws` calls of [`RngCore::next_u64`] in O(1):
        /// SplitMix64's state is a counter that each draw steps by one
        /// constant, so `advance(k)` leaves the generator exactly where
        /// `k` draws would (modulo 2⁶⁴, like the counter itself).
        pub fn advance(&mut self, draws: u64) {
            self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
        }
    }

    /// SplitMix64's state increment per draw.
    const GAMMA: u64 = 0x9e3779b97f4a7c15;

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // One warm-up mix so that nearby seeds diverge immediately.
            let mut rng = StdRng { state: seed };
            let _ = rng.next_u64();
            rng
        }
    }

    /// Alias: the small generator is the standard one here.
    pub type SmallRng = StdRng;
}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling and selection.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly chooses one element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Convenience constructor mirroring `rand::thread_rng` (seeded from the
/// clock; prefer `StdRng::seed_from_u64` for reproducibility).
pub fn thread_rng() -> rngs::StdRng {
    <rngs::StdRng as SeedableRng>::from_entropy()
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn advance_skips_exactly_that_many_draws() {
        // 3 · 8192 is the draw count of a small-flows flow table; every
        // k ≥ 2 wraps `k · GAMMA`, and seed u64::MAX wraps the add.
        for seed in [0, 9, u64::MAX] {
            for k in [0u64, 1, 2, 3, 3 * 8192, 100_003] {
                let mut stepped = StdRng::seed_from_u64(seed);
                for _ in 0..k {
                    stepped.gen::<u64>();
                }
                let mut skipped = StdRng::seed_from_u64(seed);
                skipped.advance(k);
                for _ in 0..4 {
                    assert_eq!(skipped.gen::<u64>(), stepped.gen::<u64>(), "{seed} {k}");
                }
            }
        }
        // Skip counts past 2⁶⁴ wrap like the counter: u64::MAX steps back
        // one draw, and skips compose.
        let mut rng = StdRng::seed_from_u64(5);
        let v = rng.gen::<u64>();
        rng.advance(u64::MAX);
        assert_eq!(rng.gen::<u64>(), v);
        let (mut a, mut b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        a.advance(1 << 63);
        a.advance((1 << 63) + 7);
        b.advance(7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
    }
}

//! Deterministic pseudo-random generation: SplitMix64 seeding feeding a
//! xoshiro256++ core.
//!
//! Every generator in the testkit bottoms out here, so a single `u64` seed
//! fully determines a test run. The harness derives one sub-seed per test
//! case from the base seed, which is what failure reports print.

use std::ops::Range;

/// One SplitMix64 step; also used by the harness to derive per-case seeds.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ generator, seeded via SplitMix64.
///
/// Not cryptographic; chosen for speed, full determinism, and good
/// equidistribution — the properties a test-input generator needs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed. Distinct seeds — including 0 —
    /// yield distinct streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(sm);
        }
        Rng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)` (multiply-shift; `n` must be positive).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `i64` in a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn i64_in(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.below(span) as i64)
    }

    /// Uniform `u64` in a half-open range.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform `usize` in a half-open range.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u8` in a half-open range.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.u64_in(u64::from(range.start)..u64::from(range.end)) as u8
    }

    /// Uniform `i8` in a half-open range.
    pub fn i8_in(&mut self, range: Range<i8>) -> i8 {
        self.i64_in(i64::from(range.start)..i64::from(range.end)) as i8
    }

    /// Uniform float in `[0, 1)` with 24 bits of precision.
    pub fn f32_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform float in `[start, end)`.
    pub fn f32_in(&mut self, range: Range<f32>) -> f32 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.f32_unit() * (range.end - range.start)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }

    /// Uniformly picks an element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::pick on empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// A vector with length drawn from `len` and elements from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(42);
        for _ in 0..2000 {
            assert!((-5..5).contains(&r.i64_in(-5..5)));
            assert!((0..3).contains(&r.usize_in(0..3)));
            let f = r.f32_in(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::new(0);
        let vals: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }
}

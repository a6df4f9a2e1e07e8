//! Small deterministic random number generator.
//!
//! Every stochastic decision in the suite — scene generation, per-pixel
//! sampling, K-means seeding and Zatel's section-block choice — flows through
//! this splitmix64/xoshiro-style generator so that runs are bit-reproducible
//! across platforms, which the integration tests assert.

/// Mixes a 64-bit value with the splitmix64 finalizer. Useful for deriving
/// independent seeds from `(base_seed, pixel_index)` pairs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fast, deterministic xoshiro256++ generator.
///
/// Not cryptographically secure; intended for Monte-Carlo sampling and
/// reproducible pseudo-random choices.
///
/// # Examples
///
/// ```
/// use rtcore::math::Pcg;
///
/// let mut a = Pcg::new(42);
/// let mut b = Pcg::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg {
    state: [u64; 4],
}

impl Pcg {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = splitmix64(s);
            *slot = s;
        }
        Pcg { state }
    }

    /// Derives an independent stream for item `index` of a sequence, e.g.
    /// one stream per pixel.
    pub fn for_index(seed: u64, index: u64) -> Self {
        Pcg::new(splitmix64(seed ^ splitmix64(index)))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub(crate) fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg::new(7);
        let mut b = Pcg::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg::new(1);
        let mut b = Pcg::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = Pcg::new(3);
        for _ in 0..10_000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn floats_roughly_uniform() {
        let mut r = Pcg::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| f64::from(r.next_f32())).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_in_bounds() {
        let mut r = Pcg::new(5);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn next_below_zero_panics() {
        Pcg::new(0).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg::new(9);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn per_index_streams_are_independent() {
        let a: Vec<u64> = {
            let mut r = Pcg::for_index(42, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Pcg::for_index(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }
}

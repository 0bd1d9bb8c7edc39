//! Deterministic random number generation.
//!
//! All randomness in the workspace flows from [`DetRng`], a SplitMix64-based
//! generator. Experiments are identified by a (configuration, seed) pair and
//! must be bit-reproducible; `DetRng` guarantees a stable stream independent
//! of platform and of the `rand` crate's version.

/// A small, fast, deterministic PRNG (SplitMix64).
///
/// Not cryptographically secure; used only for workload and fault-injection
/// randomization.
///
/// # Examples
///
/// ```
/// use flash_sim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Any seed value is acceptable.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point family by pre-mixing the seed.
        DetRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derives an independent child generator; used to give each node or
    /// subsystem its own stream without cross-coupling.
    pub fn fork(&mut self, tag: u64) -> DetRng {
        let mixed = self.next_u64() ^ tag.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        DetRng::new(mixed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire-style rejection-free-enough reduction with one retry loop to
        // remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = widening_mul(r, bound);
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform `usize` index in `[0, len)`. Returns 0 when `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

/// 64x64 -> 128-bit multiply, returning (high, low) words.
#[inline]
fn widening_mul(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = DetRng::new(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(1);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..100 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = DetRng::new(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(9);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = DetRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = DetRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = DetRng::new(17);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }
}

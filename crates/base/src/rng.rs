//! Deterministic pseudo-random number generation for the simulator.
//!
//! Every stochastic choice in the simulation (victim selection, UTS tree
//! shape, workload jitter) flows through [`SplitMix64`], so a run is fully
//! reproducible from its seed. SplitMix64 is tiny, splittable (each worker
//! derives an independent stream from the root seed) and passes BigCrush;
//! it is the standard seeder for the xoshiro family.
//!
//! The `rand` crate is used elsewhere in the workspace for convenience
//! distributions, but the *simulation-critical* paths use this generator so
//! that results cannot change under a `rand` version bump.

use serde::{Deserialize, Serialize};

/// SplitMix64 PRNG (Steele, Lea & Flood; public domain reference algorithm).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream for a sub-entity (e.g. one worker).
    ///
    /// The derived seed is the parent's output after mixing in `stream`,
    /// which decorrelates sibling streams even for adjacent indices.
    #[inline]
    pub fn split(&self, stream: u64) -> SplitMix64 {
        let mut child =
            SplitMix64::new(self.state ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)));
        // Burn one output so `split(0)` differs from a clone.
        child.next_u64();
        child
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift; `bound` > 0.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening multiply maps a 64-bit draw to [0, bound) with
        // negligible bias (< 2^-64 per draw), which is fine for victim
        // selection and workload shaping.
        let x = self.next_u64() as u128;
        ((x * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Pick a uniformly random element index of a non-empty slice length.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 C reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn determinism() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let root = SplitMix64::new(7);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let mut same = 0;
        for _ in 0..64 {
            if s0.next_u64() == s1.next_u64() {
                same += 1;
            }
        }
        assert_eq!(same, 0, "sibling streams must not collide");
    }

    #[test]
    fn split_differs_from_parent() {
        let root = SplitMix64::new(7);
        let mut child = root.split(0);
        let mut parent = root.clone();
        assert_ne!(child.next_u64(), parent.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }
}

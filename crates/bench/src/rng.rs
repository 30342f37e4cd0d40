//! A tiny deterministic PRNG for workload generation.
//!
//! The benchmark harness needs reproducible pseudo-randomness (random DCDS
//! shapes, sampled service answers) but must build without registry access,
//! so instead of the `rand` crate we ship SplitMix64 — the 64-bit mixer of
//! Steele, Lea & Flood ("Fast splittable pseudorandom number generators",
//! OOPSLA 2014). It passes BigCrush for this output width and is more than
//! good enough for shaping synthetic workloads; nothing here is
//! cryptographic.

/// SplitMix64: a full-period 64-bit generator seeded by any `u64`.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent-ish
    /// streams; the same seed always yields the same stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at most
    /// `bound / 2^64`, which is irrelevant at workload-generation scale.
    pub fn gen_range(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "gen_range bound must be non-zero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against a 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = SplitMix64::new(42);
        for bound in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..50 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = SplitMix64::new(9);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "got {heads}");
    }
}

//! Deterministic random number generation for synthetic weights and inputs.
//!
//! Every stochastic artifact in the reproduction (SuperNet weights, query
//! constraints, input activations) must be reproducible run-to-run so the
//! regenerated tables and figures are stable. This module wraps a
//! SplitMix64 generator: tiny, fast, and stable across platforms — unlike
//! `rand`'s default generators whose stream is not guaranteed across
//! versions.

/// Deterministic SplitMix64 generator with convenience samplers.
///
/// # Example
/// ```
/// use sushi_tensor::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child stream, e.g. one per layer.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let mix = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(mix)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_f32 bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is undefined");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform `i8` in the full int8 range, suitable as a synthetic weight.
    pub fn next_i8(&mut self) -> i8 {
        (self.next_u64() & 0xFF) as u8 as i8
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if `choices` is empty.
    pub fn choose<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.below(choices.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_of_parent_continuation() {
        let mut parent = DetRng::new(9);
        let mut child = parent.fork(1);
        let p_next = parent.next_u64();
        let c_next = child.next_u64();
        assert_ne!(p_next, c_next);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(4);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = DetRng::new(5);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_f32_respects_bounds() {
        let mut r = DetRng::new(6);
        for _ in 0..1000 {
            let v = r.uniform_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn choose_returns_member() {
        let mut r = DetRng::new(10);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }
}

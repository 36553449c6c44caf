//! Small numeric helpers the harness owns: order statistics, a seeded
//! generator, a digest, and the process's peak resident set.

/// Nearest-rank percentile: the value at rank `ceil(p · n)` (1-based) of
/// the sorted sample. `p` is in `(0, 1]`; an empty sample gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the harness's own generator, so a stream depends only on
/// `--seed` and never on the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Van der Corput radical inverse in base 2: every prefix of the sequence
/// is evenly spread over `[0, 1)`.
pub fn van_der_corput(mut i: u64) -> f64 {
    let mut x = 0.0;
    let mut half = 0.5;
    while i > 0 {
        if i & 1 == 1 {
            x += half;
        }
        half *= 0.5;
        i >>= 1;
    }
    x
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        // Order of the input does not matter; odd sizes hit the middle.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(182, 0.5), 91);
        assert_eq!(nearest_rank(182, 0.9), 164);
    }

    #[test]
    fn van_der_corput_prefixes_are_evenly_spread() {
        let v: Vec<f64> = (0..8).map(van_der_corput).collect();
        assert_eq!(v, vec![0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]);
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffle_permutes() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<usize> = (0..9).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert!((0.0..1.0).contains(&a.next_f64()));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a of eight zero bytes.
        let mut h = Fnv1a::default();
        h.push(0);
        assert_eq!(h.0, 0xA8C7_F832_281A_39C5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

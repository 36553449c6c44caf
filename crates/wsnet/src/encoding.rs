//! Vectorized SubGraph/SubNet encodings and the running-average mechanism.
//!
//! The scheduler (Fig. 6) represents each network as a `2N`-vector
//! `[K₁, C₁, K₂, C₂, …, K_N, C_N]` of per-layer kernel and channel counts,
//! maintains a **running average** of the SubNets served for the past `Q`
//! queries, and caches the candidate SubGraph *closest* to that average.
//! Averaging, unlike pure intersection, preserves information about kernels
//! and channels that were frequent but not universal.

use crate::subgraph::SubGraph;

/// A `2N`-dimensional vectorized network representation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetVector(Vec<f64>);

impl NetVector {
    /// Encodes a SubGraph as `[K₁, C₁, …, K_N, C_N]`.
    #[must_use]
    pub fn encode(graph: &SubGraph) -> Self {
        let mut v = Vec::with_capacity(graph.num_layers() * 2);
        for s in graph.slices() {
            v.push(s.kernels as f64);
            v.push(s.channels as f64);
        }
        Self(v)
    }

    /// Creates a vector directly from components.
    #[must_use]
    fn from_components(v: Vec<f64>) -> Self {
        Self(v)
    }

    /// The raw components.
    #[must_use]
    pub fn components(&self) -> &[f64] {
        &self.0
    }

    /// Dimensionality (`2N`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Euclidean (L2) distance — the scheduler's similarity measure.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    #[must_use]
    pub fn dist_l2(&self, other: &Self) -> f64 {
        assert_eq!(self.0.len(), other.0.len(), "vector dims differ");
        self.0.iter().zip(&other.0).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    /// L2 norm.
    #[must_use]
    fn norm_l2(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Cosine distance `1 − cos(a, b)` (alternative measure for ablations).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    #[must_use]
    pub fn dist_cosine(&self, other: &Self) -> f64 {
        assert_eq!(self.0.len(), other.0.len(), "vector dims differ");
        let dot: f64 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let den = self.norm_l2() * other.norm_l2();
        if den == 0.0 {
            return 1.0;
        }
        1.0 - dot / den
    }
}

/// The cache-hit proxy of Appendix A.4: `‖SN ∩ G‖₂ / ‖SN‖₂`, the fraction of
/// the served SubNet's (vectorized) weights found in the cached SubGraph.
#[must_use]
pub fn overlap_ratio(served: &SubGraph, cached: &SubGraph) -> f64 {
    let sn = NetVector::encode(served);
    let denom = sn.norm_l2();
    if denom == 0.0 {
        return 0.0;
    }
    let inter = NetVector::encode(&served.intersect(cached));
    inter.norm_l2() / denom
}

/// Windowed running average over the last `Q` served SubNet vectors
/// (`AvgNet` in Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RunningAvg {
    window: usize,
    dim: usize,
    buf: Vec<NetVector>,
    next: usize,
    filled: bool,
}

impl RunningAvg {
    /// Creates an averager over a window of `q` vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    #[must_use]
    pub fn new(q: usize, dim: usize) -> Self {
        assert!(q > 0, "window must be positive");
        Self { window: q, dim, buf: Vec::with_capacity(q), next: 0, filled: false }
    }

    /// Window length `Q`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of vectors currently contributing to the average.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.filled {
            self.window
        } else {
            self.buf.len()
        }
    }

    /// Whether no vectors have been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one served SubNet vector.
    ///
    /// # Panics
    /// Panics if the vector dimension does not match.
    pub fn push(&mut self, v: NetVector) {
        assert_eq!(v.dim(), self.dim, "vector dim mismatch");
        if self.buf.len() < self.window {
            self.buf.push(v);
            if self.buf.len() == self.window {
                self.filled = true;
            }
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.window;
        }
    }

    /// Current average vector, or `None` before any push.
    #[must_use]
    pub fn mean(&self) -> Option<NetVector> {
        if self.buf.is_empty() {
            return None;
        }
        let mut acc = vec![0.0; self.dim];
        for v in &self.buf {
            for (a, b) in acc.iter_mut().zip(v.components()) {
                *a += b;
            }
        }
        let n = self.buf.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        Some(NetVector::from_components(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSlice;

    fn sg(dims: &[(usize, usize)]) -> SubGraph {
        SubGraph::new(dims.iter().map(|&(k, c)| LayerSlice::new(k, c, 3)).collect())
    }

    #[test]
    fn encode_interleaves_k_and_c() {
        let v = NetVector::encode(&sg(&[(8, 4), (16, 12)]));
        assert_eq!(v.components(), &[8.0, 4.0, 16.0, 12.0]);
    }

    #[test]
    fn l2_distance_matches_hand_computation() {
        let a = NetVector::from_components(vec![0.0, 3.0]);
        let b = NetVector::from_components(vec![4.0, 0.0]);
        assert!((a.dist_l2(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l2_distance_is_symmetric_and_zero_on_self() {
        let a = NetVector::encode(&sg(&[(8, 4), (16, 12)]));
        let b = NetVector::encode(&sg(&[(4, 8), (12, 16)]));
        assert_eq!(a.dist_l2(&b), b.dist_l2(&a));
        assert_eq!(a.dist_l2(&a), 0.0);
    }

    #[test]
    fn cosine_distance_of_parallel_vectors_is_zero() {
        let a = NetVector::from_components(vec![1.0, 2.0]);
        let b = NetVector::from_components(vec![2.0, 4.0]);
        assert!(a.dist_cosine(&b).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_of_orthogonal_vectors_is_one() {
        let a = NetVector::from_components(vec![1.0, 0.0]);
        let b = NetVector::from_components(vec![0.0, 1.0]);
        assert!((a.dist_cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_is_one_for_subset_cache_superset() {
        let sn = sg(&[(8, 4), (16, 12)]);
        let cached = sg(&[(8, 8), (16, 16)]);
        assert!((overlap_ratio(&sn, &cached) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_is_zero_for_empty_cache() {
        let sn = sg(&[(8, 4)]);
        let cached = SubGraph::empty(1);
        assert_eq!(overlap_ratio(&sn, &cached), 0.0);
    }

    #[test]
    fn overlap_ratio_between_zero_and_one() {
        let sn = sg(&[(8, 4), (16, 12)]);
        let cached = sg(&[(4, 4), (8, 6)]);
        let r = overlap_ratio(&sn, &cached);
        assert!(r > 0.0 && r < 1.0, "r={r}");
    }

    #[test]
    fn running_avg_before_push_is_none() {
        let r = RunningAvg::new(4, 2);
        assert!(r.mean().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn running_avg_partial_window_averages_available() {
        let mut r = RunningAvg::new(4, 1);
        r.push(NetVector::from_components(vec![2.0]));
        r.push(NetVector::from_components(vec![4.0]));
        assert_eq!(r.mean().unwrap().components(), &[3.0]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn running_avg_evicts_oldest_beyond_window() {
        let mut r = RunningAvg::new(2, 1);
        for x in [1.0, 2.0, 3.0] {
            r.push(NetVector::from_components(vec![x]));
        }
        // Window is [2, 3] after pushing 3.
        assert_eq!(r.mean().unwrap().components(), &[2.5]);
    }

    #[test]
    fn running_avg_preserves_frequent_but_not_universal_info() {
        // Three nets: two use 16 kernels, one uses 8. Pure intersection would
        // collapse to 8; the average keeps the signal at 13.33.
        let mut r = RunningAvg::new(3, 2);
        r.push(NetVector::encode(&sg(&[(16, 8)])));
        r.push(NetVector::encode(&sg(&[(16, 8)])));
        r.push(NetVector::encode(&sg(&[(8, 8)])));
        let mean = r.mean().unwrap();
        assert!(mean.components()[0] > 13.0 && mean.components()[0] < 14.0);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn running_avg_rejects_dim_mismatch() {
        let mut r = RunningAvg::new(2, 2);
        r.push(NetVector::from_components(vec![1.0]));
    }
}

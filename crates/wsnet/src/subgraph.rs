//! SubGraphs: arbitrary weight subsets of a SuperNet, closed under
//! intersection and union.
//!
//! The paper distinguishes **SubNets** (subsets of the SuperNet usable for a
//! forward pass) from **SubGraphs** (any connected subset of weights — e.g.
//! the intersection of two SubNets, or a SubNet truncated to the Persistent
//! Buffer size). Every SubNet is a SubGraph; not vice versa.
//!
//! A SubGraph is represented as one [`LayerSlice`] per SuperNet layer, using
//! OFA's ordered-importance convention: an active slice is always the top-K
//! kernels × top-C channels × center kernel window, so slices (and therefore
//! SubGraphs) form a lattice where meet/join are elementwise min/max.

use crate::layer::LayerSlice;

/// A subset of SuperNet weights: one slice per layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubGraph {
    slices: Vec<LayerSlice>,
}

impl SubGraph {
    /// Creates a SubGraph from per-layer slices.
    #[must_use]
    pub fn new(slices: Vec<LayerSlice>) -> Self {
        Self { slices }
    }

    /// A SubGraph with every layer inactive.
    #[must_use]
    pub fn empty(num_layers: usize) -> Self {
        Self { slices: vec![LayerSlice::empty(); num_layers] }
    }

    /// Number of layers (active or not).
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.slices.len()
    }

    /// Per-layer slices.
    #[must_use]
    pub fn slices(&self) -> &[LayerSlice] {
        &self.slices
    }

    /// Slice at a layer index.
    ///
    /// # Panics
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn slice(&self, layer: usize) -> LayerSlice {
        self.slices[layer]
    }

    /// Number of layers with a non-empty slice.
    #[must_use]
    pub fn active_layers(&self) -> usize {
        self.slices.iter().filter(|s| !s.is_empty()).count()
    }

    /// Whether no layer is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slices.iter().all(LayerSlice::is_empty)
    }

    /// Lattice meet: the weights shared by both SubGraphs.
    ///
    /// This is the paper's *SubGraph Reuse* object — "common shared weights
    /// form a SubGraph (e.g. created as the intersection of computational
    /// graphs of any two served SubNets)".
    ///
    /// # Panics
    /// Panics if the SubGraphs have different layer counts.
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Self {
        assert_eq!(self.slices.len(), other.slices.len(), "SubGraphs from different SuperNets");
        Self {
            slices: self.slices.iter().zip(&other.slices).map(|(a, b)| a.intersect(b)).collect(),
        }
    }

    /// Lattice join: the smallest SubGraph containing both.
    ///
    /// # Panics
    /// Panics if the SubGraphs have different layer counts.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        assert_eq!(self.slices.len(), other.slices.len(), "SubGraphs from different SuperNets");
        Self { slices: self.slices.iter().zip(&other.slices).map(|(a, b)| a.union(b)).collect() }
    }

    /// Whether every weight of `self` is also in `other`.
    ///
    /// # Panics
    /// Panics if the SubGraphs have different layer counts.
    #[must_use]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        assert_eq!(self.slices.len(), other.slices.len(), "SubGraphs from different SuperNets");
        self.slices.iter().zip(&other.slices).all(|(a, b)| a.is_subset_of(b))
    }

    /// Scales each layer's active kernel/channel counts by its own factor
    /// (clamped to `[0, 1]`). Enables *shape-diverse* cache candidates: a
    /// front-heavy and a back-heavy truncation of the same SubNet are
    /// different SubGraphs with different serving affinities (Fig. 3).
    ///
    /// # Panics
    /// Panics if `alphas.len() != self.num_layers()`.
    #[must_use]
    pub fn scaled_per_layer(&self, alphas: &[f64]) -> Self {
        assert_eq!(alphas.len(), self.slices.len(), "one alpha per layer");
        Self {
            slices: self
                .slices
                .iter()
                .zip(alphas)
                .map(|(s, &alpha)| {
                    let alpha = alpha.clamp(0.0, 1.0);
                    if s.is_empty() {
                        *s
                    } else {
                        LayerSlice {
                            kernels: scale_dim(s.kernels, alpha),
                            channels: scale_dim(s.channels, alpha),
                            kernel_size: s.kernel_size,
                        }
                    }
                })
                .collect(),
        }
    }
}

/// Scales a dimension, keeping at least 1 active unit when `alpha > 0`.
fn scale_dim(dim: usize, alpha: f64) -> usize {
    if alpha <= 0.0 {
        return 0;
    }
    ((dim as f64 * alpha).round() as usize).clamp(1, dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layer scaled by the same `alpha`.
    fn scaled(g: &SubGraph, alpha: f64) -> SubGraph {
        g.scaled_per_layer(&vec![alpha; g.num_layers()])
    }

    fn sg(dims: &[(usize, usize, usize)]) -> SubGraph {
        SubGraph::new(dims.iter().map(|&(k, c, ks)| LayerSlice::new(k, c, ks)).collect())
    }

    #[test]
    fn empty_has_no_active_layers() {
        let g = SubGraph::empty(5);
        assert_eq!(g.num_layers(), 5);
        assert_eq!(g.active_layers(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn intersect_commutes() {
        let a = sg(&[(8, 4, 3), (16, 8, 3)]);
        let b = sg(&[(4, 8, 3), (16, 4, 3)]);
        assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn intersect_is_idempotent() {
        let a = sg(&[(8, 4, 3), (16, 8, 5)]);
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn intersection_is_subset_of_both() {
        let a = sg(&[(8, 4, 3), (16, 8, 7)]);
        let b = sg(&[(4, 8, 3), (16, 4, 5)]);
        let i = a.intersect(&b);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
    }

    #[test]
    fn union_contains_both() {
        let a = sg(&[(8, 4, 3), (16, 8, 7)]);
        let b = sg(&[(4, 8, 3), (16, 4, 5)]);
        let u = a.union(&b);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
    }

    #[test]
    fn absorption_laws_hold() {
        let a = sg(&[(8, 4, 3), (16, 8, 7)]);
        let b = sg(&[(4, 8, 3), (16, 4, 5)]);
        assert_eq!(a.union(&a.intersect(&b)), a);
        assert_eq!(a.intersect(&a.union(&b)), a);
    }

    #[test]
    fn subset_is_antisymmetric() {
        let a = sg(&[(8, 4, 3)]);
        let b = sg(&[(8, 4, 3)]);
        assert!(a.is_subset_of(&b) && b.is_subset_of(&a));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different SuperNets")]
    fn intersect_rejects_mismatched_layer_counts() {
        let a = SubGraph::empty(2);
        let b = SubGraph::empty(3);
        let _ = a.intersect(&b);
    }

    #[test]
    fn scaled_one_is_identity() {
        let a = sg(&[(8, 4, 3), (16, 8, 5)]);
        assert_eq!(scaled(&a, 1.0), a);
    }

    #[test]
    fn scaled_result_is_subset() {
        let a = sg(&[(8, 4, 3), (16, 8, 5), (100, 60, 7)]);
        for alpha in [0.1, 0.3, 0.5, 0.9] {
            assert!(scaled(&a, alpha).is_subset_of(&a), "alpha={alpha}");
        }
    }

    #[test]
    fn scaled_keeps_at_least_one_unit() {
        let a = sg(&[(8, 4, 3)]);
        let s = scaled(&a, 0.01);
        assert_eq!(s.slice(0).kernels, 1);
        assert_eq!(s.slice(0).channels, 1);
    }

    #[test]
    fn scaled_zero_empties_active_layers() {
        let a = sg(&[(8, 4, 3)]);
        assert!(scaled(&a, 0.0).is_empty());
    }

    #[test]
    fn scaled_preserves_inactive_layers() {
        let mut a = sg(&[(8, 4, 3), (0, 0, 0)]);
        a = scaled(&a, 0.5);
        assert!(a.slice(1).is_empty());
    }
}

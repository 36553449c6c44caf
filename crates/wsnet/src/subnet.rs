//! SubNet configurations and materialized SubNets.

use crate::subgraph::SubGraph;

/// Elastic-dimension choice for one SubNet of a SuperNet (OFA-style).
///
/// * `depths[s]` — how many blocks of stage `s` are active (top-`d` blocks).
/// * `expands[s]` — expand ratio applied to stage `s`'s block mid-channels.
/// * `kernels[s]` — spatial kernel size for stage `s` (only used by families
///   with elastic kernels; empty means "architecture default").
/// * `width_mult` — global channel width multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct SubNetConfig {
    /// Active block count per stage.
    pub depths: Vec<usize>,
    /// Expand ratio per stage.
    pub expands: Vec<f64>,
    /// Kernel size per stage (may be empty for fixed-kernel families).
    pub kernels: Vec<usize>,
    /// Global width multiplier.
    pub width_mult: f64,
}

impl SubNetConfig {
    /// Creates a config with the given per-stage depths/expands and defaults
    /// (no elastic kernel, width 1.0).
    #[must_use]
    pub fn new(depths: Vec<usize>, expands: Vec<f64>) -> Self {
        Self { depths, expands, kernels: Vec::new(), width_mult: 1.0 }
    }

    /// Sets per-stage kernel sizes.
    #[must_use]
    pub fn with_kernels(mut self, kernels: Vec<usize>) -> Self {
        self.kernels = kernels;
        self
    }

    /// Sets the width multiplier.
    #[must_use]
    pub fn with_width(mut self, width_mult: f64) -> Self {
        self.width_mult = width_mult;
        self
    }

    /// Kernel size for a stage, or `default` when kernels are not elastic.
    #[must_use]
    pub fn kernel_for_stage(&self, stage: usize, default: usize) -> usize {
        self.kernels.get(stage).copied().unwrap_or(default)
    }

    /// Whether this config is elementwise dominated by `other`
    /// (⇒ its materialized SubNet is a subgraph of `other`'s when width
    /// multipliers are equal).
    #[must_use]
    pub fn dominated_by(&self, other: &Self) -> bool {
        self.depths.len() == other.depths.len()
            && self.depths.iter().zip(&other.depths).all(|(a, b)| a <= b)
            && self.expands.iter().zip(&other.expands).all(|(a, b)| a <= b)
            && self.kernels.iter().zip(&other.kernels).all(|(a, b)| a <= b)
            && self.width_mult <= other.width_mult
    }
}

/// A materialized SubNet: the weight subset plus its serving metadata.
///
/// Accuracy is a *fixed* property of the SubNet; latency depends on the
/// accelerator state (the cached SubGraph), which is why it is not stored
/// here but looked up through `sushi-sched`'s latency table.
#[derive(Debug, Clone, PartialEq)]
pub struct SubNet {
    /// Short name, e.g. `"A"`.. `"G"` for the paper's Pareto picks.
    pub name: String,
    /// The elastic configuration that produced this SubNet.
    pub config: SubNetConfig,
    /// The activated weight subset.
    pub graph: SubGraph,
    /// Top-1 accuracy in `[0, 1]` (from the calibrated accuracy profile).
    pub accuracy: f64,
    /// Total forward-pass FLOPs.
    pub flops: u64,
    /// Total weight bytes (int8 + per-kernel scale/bias words).
    pub weight_bytes: u64,
}

impl SubNet {
    /// Accuracy in percent, as reported in the paper's figures.
    #[must_use]
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy * 100.0
    }

    /// Weight megabytes (10^6 bytes, as used in the paper's §5.1 sizes).
    #[must_use]
    pub fn weight_mb(&self) -> f64 {
        self.weight_bytes as f64 / 1e6
    }

    /// GFLOPs for one forward pass.
    #[must_use]
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_sets_fields() {
        let c =
            SubNetConfig::new(vec![2, 3], vec![0.2, 0.25]).with_kernels(vec![3, 5]).with_width(0.8);
        assert_eq!(c.depths, vec![2, 3]);
        assert_eq!(c.kernels, vec![3, 5]);
        assert_eq!(c.width_mult, 0.8);
    }

    #[test]
    fn kernel_for_stage_falls_back_to_default() {
        let c = SubNetConfig::new(vec![2], vec![0.2]);
        assert_eq!(c.kernel_for_stage(0, 3), 3);
        let c = c.with_kernels(vec![7]);
        assert_eq!(c.kernel_for_stage(0, 3), 7);
    }

    #[test]
    fn dominated_by_requires_all_dims() {
        let small = SubNetConfig::new(vec![2, 2], vec![0.2, 0.2]).with_width(0.65);
        let big = SubNetConfig::new(vec![4, 4], vec![0.35, 0.35]).with_width(1.0);
        assert!(small.dominated_by(&big));
        assert!(!big.dominated_by(&small));
    }

    #[test]
    fn dominated_by_is_reflexive() {
        let c = SubNetConfig::new(vec![3], vec![0.25]);
        assert!(c.dominated_by(&c));
    }

    #[test]
    fn mixed_configs_are_incomparable() {
        let a = SubNetConfig::new(vec![4, 2], vec![0.2, 0.2]);
        let b = SubNetConfig::new(vec![2, 4], vec![0.2, 0.2]);
        assert!(!a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    #[test]
    fn subnet_unit_conversions() {
        let sn = SubNet {
            name: "A".into(),
            config: SubNetConfig::new(vec![], vec![]),
            graph: SubGraph::empty(0),
            accuracy: 0.7525,
            flops: 2_500_000_000,
            weight_bytes: 7_580_000,
        };
        assert!((sn.accuracy_pct() - 75.25).abs() < 1e-9);
        assert!((sn.weight_mb() - 7.58).abs() < 1e-9);
        assert!((sn.gflops() - 2.5).abs() < 1e-9);
    }
}

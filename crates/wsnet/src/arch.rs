//! SuperNet architecture: stages, elastic dimensions, and SubNet
//! materialization.
//!
//! A [`SuperNet`] is the weight-shared construct of §2.1: a collection of
//! stages of repeated blocks whose depth, width (expand ratio), kernel size
//! and global channel width are *elastic*. Materializing a
//! [`SubNetConfig`] selects the top-`d` blocks per stage and the top slice
//! of each layer's kernels/channels, yielding a [`SubNet`] whose weights are
//! nested inside the SuperNet (and inside every larger SubNet).

use serde::{Deserialize, Serialize};

use crate::accuracy::AccuracyModel;
use crate::layer::{ConvKind, ConvLayerDesc, LayerRole, LayerSlice};
use crate::subgraph::SubGraph;
use crate::subnet::{SubNet, SubNetConfig};

/// Marker for stem/head layers that belong to no stage.
pub const NO_STAGE: usize = usize::MAX;

/// The two OFA SuperNet families evaluated in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// OFA-ResNet50: bottleneck blocks, elastic depth/expand/width.
    OfaResNet50,
    /// OFA-MobileNetV3: MBConv blocks with SE, elastic depth/expand/kernel.
    OfaMobileNetV3,
}

/// Static description of one stage of repeated blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Maximum number of blocks (elastic depth upper bound).
    pub max_blocks: usize,
    /// Base output channels at width multiplier 1.0.
    pub base_out: usize,
    /// Stride of the first block.
    pub stride: usize,
    /// Whether blocks carry a squeeze-and-excite module (MobileNetV3).
    pub se: bool,
    /// Default (and maximal) spatial kernel size of the block's main conv.
    pub default_kernel: usize,
}

/// The elastic choice sets of a SuperNet (uniform across stages).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticSpace {
    /// Allowed per-stage depths.
    pub depth_choices: Vec<usize>,
    /// Allowed per-stage expand ratios.
    pub expand_choices: Vec<f64>,
    /// Allowed per-stage kernel sizes (empty if kernels are fixed).
    pub kernel_choices: Vec<usize>,
    /// Allowed global width multipliers.
    pub width_choices: Vec<f64>,
}

/// A weight-shared SuperNet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperNet {
    /// Display name, e.g. `"OFA-ResNet50"`.
    pub name: String,
    /// Architecture family (drives materialization rules).
    pub family: Family,
    /// Input image height/width.
    pub input_hw: usize,
    /// Stem base output channels at width 1.0.
    pub stem_base: usize,
    /// Head layer widths: `[classes]` for ResNet-style heads,
    /// `[final_expand, fc1, classes]` for MobileNetV3-style heads.
    pub head_channels: Vec<usize>,
    /// Stage descriptions.
    pub stages: Vec<StageSpec>,
    /// Flattened layer descriptors at maximal dimensions.
    pub layers: Vec<ConvLayerDesc>,
    /// Elastic choice sets.
    pub elastic: ElasticSpace,
    /// Calibrated accuracy profile.
    pub accuracy: AccuracyModel,
}

/// Rounds channels to the hardware-friendly multiple of 8 used by OFA's
/// `make_divisible`, never below 8.
#[must_use]
pub fn round_channels(x: f64) -> usize {
    let r = ((x / 8.0).round() as usize) * 8;
    r.max(8)
}

impl SuperNet {
    /// The largest SubNet configuration (every elastic dim at max).
    #[must_use]
    pub fn max_config(&self) -> SubNetConfig {
        let s = self.stages.len();
        let mut c = SubNetConfig::new(
            vec![*self.elastic.depth_choices.iter().max().expect("non-empty depths"); s],
            vec![max_f(&self.elastic.expand_choices); s],
        )
        .with_width(max_f(&self.elastic.width_choices));
        if !self.elastic.kernel_choices.is_empty() {
            c = c.with_kernels(vec![*self.elastic.kernel_choices.iter().max().unwrap(); s]);
        }
        c
    }

    /// The smallest SubNet configuration (every elastic dim at min).
    #[must_use]
    pub fn min_config(&self) -> SubNetConfig {
        let s = self.stages.len();
        let mut c = SubNetConfig::new(
            vec![*self.elastic.depth_choices.iter().min().expect("non-empty depths"); s],
            vec![min_f(&self.elastic.expand_choices); s],
        )
        .with_width(min_f(&self.elastic.width_choices));
        if !self.elastic.kernel_choices.is_empty() {
            c = c.with_kernels(vec![*self.elastic.kernel_choices.iter().min().unwrap(); s]);
        }
        c
    }

    /// Validates that a config is well-formed for this SuperNet.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate_config(&self, config: &SubNetConfig) -> Result<(), String> {
        if config.depths.len() != self.stages.len() {
            return Err(format!(
                "config has {} stage depths, SuperNet has {} stages",
                config.depths.len(),
                self.stages.len()
            ));
        }
        if config.expands.len() != self.stages.len() {
            return Err(format!(
                "config has {} expand ratios, SuperNet has {} stages",
                config.expands.len(),
                self.stages.len()
            ));
        }
        for (s, (&d, spec)) in config.depths.iter().zip(&self.stages).enumerate() {
            if d == 0 || d > spec.max_blocks {
                return Err(format!("stage {s} depth {d} outside [1, {}]", spec.max_blocks));
            }
        }
        if config.width_mult <= 0.0 {
            return Err("width multiplier must be positive".into());
        }
        for (s, &e) in config.expands.iter().enumerate() {
            if e <= 0.0 {
                return Err(format!("stage {s} expand ratio must be positive"));
            }
        }
        if !config.kernels.is_empty() {
            for (s, &k) in config.kernels.iter().enumerate() {
                let maxk = self.stages[s].default_kernel;
                if k == 0 || k > maxk || k % 2 == 0 {
                    return Err(format!("stage {s} kernel {k} invalid (odd, ≤ {maxk})"));
                }
            }
        }
        Ok(())
    }

    /// Materializes a configuration into a [`SubNet`].
    ///
    /// # Errors
    /// Returns an error when the config fails [`Self::validate_config`].
    pub fn materialize(
        &self,
        name: impl Into<String>,
        config: &SubNetConfig,
    ) -> Result<SubNet, String> {
        self.validate_config(config)?;
        let slices: Vec<LayerSlice> =
            self.layers.iter().map(|layer| self.active_slice(layer, config)).collect();
        let graph = SubGraph::new(slices);
        let flops = self.subgraph_flops(&graph);
        let weight_bytes = self.subgraph_weight_bytes(&graph);
        let accuracy = self.accuracy.accuracy_for_flops(flops);
        Ok(SubNet {
            name: name.into(),
            config: config.clone(),
            graph,
            accuracy,
            flops,
            weight_bytes,
        })
    }

    /// Computes the active slice of one layer under a config.
    fn active_slice(&self, layer: &ConvLayerDesc, config: &SubNetConfig) -> LayerSlice {
        let w = config.width_mult;
        // Stage-less layers: stem and head.
        if layer.stage == NO_STAGE {
            return layer.clamp_slice(self.stem_or_head_slice(layer, config));
        }
        let s = layer.stage;
        let b = layer.block;
        if b >= config.depths[s] {
            return LayerSlice::empty(); // block dropped by elastic depth
        }
        let e = config.expands[s];
        let spec = &self.stages[s];
        let out = round_channels(spec.base_out as f64 * w);
        let in_ch = self.block_in_channels(s, b, w);
        let slice = match (self.family, layer.role) {
            (Family::OfaResNet50, LayerRole::Expand) => {
                LayerSlice::new(round_channels(spec.base_out as f64 * w * e), in_ch, 1)
            }
            (Family::OfaResNet50, LayerRole::Spatial) => {
                let mid = round_channels(spec.base_out as f64 * w * e);
                LayerSlice::new(mid, mid, spec.default_kernel)
            }
            (Family::OfaResNet50, LayerRole::Project) => {
                LayerSlice::new(out, round_channels(spec.base_out as f64 * w * e), 1)
            }
            (Family::OfaResNet50, LayerRole::Downsample) => LayerSlice::new(out, in_ch, 1),
            (Family::OfaMobileNetV3, LayerRole::Expand) => {
                LayerSlice::new(round_channels(in_ch as f64 * e), in_ch, 1)
            }
            (Family::OfaMobileNetV3, LayerRole::Spatial) => {
                let mid = round_channels(in_ch as f64 * e);
                LayerSlice::new(mid, 1, config.kernel_for_stage(s, spec.default_kernel))
            }
            (Family::OfaMobileNetV3, LayerRole::SeReduce) => {
                let mid = round_channels(in_ch as f64 * e);
                LayerSlice::new(round_channels(mid as f64 / 4.0), mid, 1)
            }
            (Family::OfaMobileNetV3, LayerRole::SeExpand) => {
                let mid = round_channels(in_ch as f64 * e);
                LayerSlice::new(mid, round_channels(mid as f64 / 4.0), 1)
            }
            (Family::OfaMobileNetV3, LayerRole::Project) => {
                LayerSlice::new(out, round_channels(in_ch as f64 * e), 1)
            }
            (family, role) => {
                unreachable!("role {role:?} not valid for family {family:?}")
            }
        };
        layer.clamp_slice(slice)
    }

    /// Active dims of stem and head layers (identified by block index for
    /// multi-layer heads).
    fn stem_or_head_slice(&self, layer: &ConvLayerDesc, config: &SubNetConfig) -> LayerSlice {
        let w = config.width_mult;
        let last_out =
            round_channels(self.stages.last().expect("at least one stage").base_out as f64 * w);
        match (self.family, layer.role, layer.block) {
            (_, LayerRole::Stem, _) => {
                LayerSlice::new(round_channels(self.stem_base as f64 * w), 3, layer.max_kernel_size)
            }
            (Family::OfaResNet50, LayerRole::Head, _) => {
                LayerSlice::new(self.head_channels[0], last_out, 1)
            }
            (Family::OfaMobileNetV3, LayerRole::Head, 0) => {
                LayerSlice::new(round_channels(self.head_channels[0] as f64 * w), last_out, 1)
            }
            (Family::OfaMobileNetV3, LayerRole::Head, 1) => LayerSlice::new(
                self.head_channels[1],
                round_channels(self.head_channels[0] as f64 * w),
                1,
            ),
            (Family::OfaMobileNetV3, LayerRole::Head, _) => {
                LayerSlice::new(self.head_channels[2], self.head_channels[1], 1)
            }
            (family, role, b) => unreachable!("bad stem/head layer {role:?}/{b} for {family:?}"),
        }
    }

    /// Input channels of block `b` of stage `s` at width `w`.
    fn block_in_channels(&self, s: usize, b: usize, w: f64) -> usize {
        if b > 0 {
            round_channels(self.stages[s].base_out as f64 * w)
        } else if s == 0 {
            round_channels(self.stem_base as f64 * w)
        } else {
            round_channels(self.stages[s - 1].base_out as f64 * w)
        }
    }

    /// Total FLOPs of a SubGraph (only meaningful for SubNets, but defined
    /// for any weight subset).
    #[must_use]
    pub fn subgraph_flops(&self, graph: &SubGraph) -> u64 {
        self.layers.iter().zip(graph.slices()).map(|(l, s)| l.flops(s)).sum()
    }

    /// Total weight bytes of a SubGraph.
    #[must_use]
    pub fn subgraph_weight_bytes(&self, graph: &SubGraph) -> u64 {
        self.layers.iter().zip(graph.slices()).map(|(l, s)| l.weight_bytes(s)).sum()
    }

    /// The SubGraph shared by *all* given SubNets (fold of intersections) —
    /// the "shared weights" size reported in §5.1.
    ///
    /// # Panics
    /// Panics if `subnets` is empty.
    #[must_use]
    pub fn shared_subgraph(&self, subnets: &[SubNet]) -> SubGraph {
        assert!(!subnets.is_empty(), "need at least one SubNet");
        subnets[1..].iter().fold(subnets[0].graph.clone(), |acc, sn| acc.intersect(&sn.graph))
    }

    /// Truncates `base` to approximately `budget_bytes` by uniformly scaling
    /// its kernel/channel counts (binary search on the scale factor).
    /// Returns `base` unchanged if it already fits.
    #[must_use]
    pub fn subgraph_to_budget(&self, base: &SubGraph, budget_bytes: u64) -> SubGraph {
        self.subgraph_to_budget_biased(base, budget_bytes, 0.0)
    }

    /// Like [`Self::subgraph_to_budget`], but applies a per-layer emphasis
    /// tilt before fitting: `bias > 0` keeps proportionally more of the
    /// *later* layers, `bias < 0` more of the *earlier* layers, `0` is
    /// uniform. Different tilts of the same SubNet produce shape-diverse
    /// cache candidates (§3.2's set `S`).
    #[must_use]
    pub fn subgraph_to_budget_biased(
        &self,
        base: &SubGraph,
        budget_bytes: u64,
        bias: f64,
    ) -> SubGraph {
        if bias == 0.0 && self.subgraph_weight_bytes(base) <= budget_bytes {
            return base.clone();
        }
        let n = base.num_layers().max(1);
        let tilt: Vec<f64> = (0..n)
            .map(|l| {
                let x = (l as f64 + 0.5) / n as f64 - 0.5; // -0.5 .. 0.5
                (bias * x).exp()
            })
            .collect();
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        // The tilt can exceed 1 for some layers; alpha=1 with clamping still
        // bounds each layer by its own slice, so hi=1 is a valid upper bound
        // only if it fits; grow hi until the fit fails or alpha covers base.
        let fits = |alpha: f64| {
            let alphas: Vec<f64> = tilt.iter().map(|t| alpha * t).collect();
            let g = base.scaled_per_layer(&alphas);
            (self.subgraph_weight_bytes(&g) <= budget_bytes).then_some(g)
        };
        let mut best = SubGraph::empty(base.num_layers());
        while hi < 64.0 && fits(hi).is_some() {
            lo = hi;
            hi *= 2.0;
        }
        if let Some(g) = fits(lo) {
            best = g;
        }
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if let Some(g) = fits(mid) {
                best = g;
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best
    }

    /// The maximal SubGraph (every layer at full size).
    #[must_use]
    pub fn full_graph(&self) -> SubGraph {
        SubGraph::new(self.layers.iter().map(ConvLayerDesc::max_slice).collect())
    }

    /// Number of layers in the flattened list.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Finalizes a freshly built SuperNet skeleton: fixes each layer's maximal
/// dimensions to the slice produced by the max config, then calibrates the
/// accuracy profile to the `[a_min, a_max]` band over the achievable FLOP
/// range.
///
/// # Panics
/// Panics if the skeleton's max/min configs fail to materialize — a zoo
/// construction bug.
pub fn finalize_supernet(net: &mut SuperNet, a_min: f64, a_max: f64, curvature: f64) {
    let max_cfg = net.max_config();
    let max_sn = net.materialize("max", &max_cfg).expect("max config must materialize");
    for (layer, slice) in net.layers.iter_mut().zip(max_sn.graph.slices()) {
        assert!(!slice.is_empty(), "layer {} inactive under max config", layer.name);
        layer.max_kernels = slice.kernels;
        layer.max_channels = slice.channels;
    }
    let f_max = net.materialize("max", &max_cfg).expect("max config").flops;
    let f_min = net.materialize("min", &net.min_config()).expect("min config").flops;
    net.accuracy = AccuracyModel::new(a_min, a_max, f_min, f_max, curvature);
}

fn max_f(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min_f(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Builder assembling the flattened layer list for a SuperNet skeleton.
///
/// Used by the `zoo` constructors; tracks spatial dimensions as layers are
/// appended and back-fills each layer's maximal dimensions by materializing
/// the max config.
#[derive(Debug)]
pub struct LayerListBuilder {
    layers: Vec<ConvLayerDesc>,
    hw: usize,
}

impl LayerListBuilder {
    /// Starts a layer list at the given input resolution.
    #[must_use]
    pub fn new(input_hw: usize) -> Self {
        Self { layers: Vec::new(), hw: input_hw }
    }

    /// Current spatial resolution.
    #[must_use]
    pub fn hw(&self) -> usize {
        self.hw
    }

    /// Appends a conv layer at the current resolution and advances the
    /// resolution by its stride.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: String,
        stage: usize,
        block: usize,
        role: LayerRole,
        kind: ConvKind,
        kernel: usize,
        elastic_kernel: bool,
        stride: usize,
    ) {
        self.push_inner(name, stage, block, role, kind, kernel, elastic_kernel, stride, true);
    }

    /// Appends a conv layer on a *parallel branch* (e.g. a residual
    /// downsample): it reads the current resolution but does not advance it —
    /// the main-path layer carrying the same stride does.
    #[allow(clippy::too_many_arguments)]
    pub fn push_parallel(
        &mut self,
        name: String,
        stage: usize,
        block: usize,
        role: LayerRole,
        kind: ConvKind,
        kernel: usize,
        stride: usize,
    ) {
        self.push_inner(name, stage, block, role, kind, kernel, false, stride, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_inner(
        &mut self,
        name: String,
        stage: usize,
        block: usize,
        role: LayerRole,
        kind: ConvKind,
        kernel: usize,
        elastic_kernel: bool,
        stride: usize,
        advance: bool,
    ) {
        let id = crate::layer::LayerId(self.layers.len());
        self.layers.push(ConvLayerDesc {
            id,
            name,
            stage,
            block,
            role,
            kind,
            max_kernels: usize::MAX,  // back-filled from the max config
            max_channels: usize::MAX, // back-filled from the max config
            max_kernel_size: kernel,
            elastic_kernel,
            stride,
            in_h: self.hw,
            in_w: self.hw,
        });
        if advance {
            self.hw = crate::layer::spatial_out(self.hw, stride);
        }
    }

    /// Appends a 1×1 layer operating on pooled (1×1 spatial) features.
    pub fn push_pooled(&mut self, name: String, stage: usize, block: usize, role: LayerRole) {
        let id = crate::layer::LayerId(self.layers.len());
        self.layers.push(ConvLayerDesc {
            id,
            name,
            stage,
            block,
            role,
            kind: ConvKind::Dense,
            max_kernels: usize::MAX,
            max_channels: usize::MAX,
            max_kernel_size: 1,
            elastic_kernel: false,
            stride: 1,
            in_h: 1,
            in_w: 1,
        });
    }

    /// Explicitly reduces the tracked resolution (e.g. a stem max-pool,
    /// which is not a weight layer).
    pub fn downsample(&mut self, factor: usize) {
        self.hw = crate::layer::spatial_out(self.hw, factor);
    }

    /// Finishes the list.
    #[must_use]
    pub fn build(self) -> Vec<ConvLayerDesc> {
        self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_channels_snaps_to_multiple_of_8() {
        assert_eq!(round_channels(64.0), 64);
        assert_eq!(round_channels(63.0), 64);
        assert_eq!(round_channels(60.0), 64);
        assert_eq!(round_channels(59.0), 56);
        assert_eq!(round_channels(1.0), 8);
    }

    #[test]
    fn layer_list_builder_tracks_resolution() {
        let mut b = LayerListBuilder::new(224);
        b.push("stem".into(), NO_STAGE, 0, LayerRole::Stem, ConvKind::Dense, 7, false, 2);
        assert_eq!(b.hw(), 112);
        b.downsample(2);
        assert_eq!(b.hw(), 56);
        b.push("c1".into(), 0, 0, LayerRole::Spatial, ConvKind::Dense, 3, false, 2);
        assert_eq!(b.hw(), 28);
        let layers = b.build();
        assert_eq!(layers[1].in_h, 56);
    }
}

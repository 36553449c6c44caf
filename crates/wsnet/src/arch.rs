//! SuperNet architecture: stages, elastic dimensions, the block layout of
//! both families, and SubNet materialization.
//!
//! A [`SuperNet`] is the weight-shared construct of §2.1: a collection of
//! stages of repeated blocks whose depth, width (expand ratio), kernel size
//! and global channel width are *elastic*. The layer list is laid out here,
//! once per family — the OFA-ResNet50 bottleneck and the OFA-MobileNetV3
//! MBConv — from a zoo entry's stages. Materializing a [`SubNetConfig`]
//! selects the top-`d` blocks per stage and the top slice of each layer's
//! kernels/channels, yielding a [`SubNet`] whose weights are nested inside
//! the SuperNet (and inside every larger SubNet).

use crate::accuracy::AccuracyModel;
use crate::layer::{spatial_out, ConvKind, ConvLayerDesc, LayerId, LayerRole, LayerSlice};
use crate::subgraph::SubGraph;
use crate::subnet::{SubNet, SubNetConfig};

/// Marker for stem/head layers that belong to no stage.
pub const NO_STAGE: usize = usize::MAX;

/// The two OFA SuperNet families evaluated in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// OFA-ResNet50: bottleneck blocks, elastic depth/expand/width.
    OfaResNet50,
    /// OFA-MobileNetV3: MBConv blocks with SE, elastic depth/expand/kernel.
    OfaMobileNetV3,
}

/// Static description of one stage of repeated blocks.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct SuperNet {
    /// Display name, e.g. `"OFA-ResNet50"`.
    pub name: String,
    /// Architecture family (drives block layout and materialization rules).
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

/// The stem of a zoo SuperNet: its conv's kernel and stride, and the stride
/// of the weightless max-pool after it (1 for none).
pub(crate) struct Stem {
    pub kernel: usize,
    pub stride: usize,
    pub pool: usize,
}

/// Rounds channels to the hardware-friendly multiple of 8 used by OFA's
/// `make_divisible`, never below 8. Saturates, so a huge width clamps to
/// each layer's maximal slice.
#[must_use]
fn round_channels(x: f64) -> usize {
    ((x / 8.0).round() as usize).saturating_mul(8).max(8)
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
        let w = config.width_mult;
        if !(w.is_finite() && w > 0.0) {
            return Err(format!("width_mult {w} must be finite and positive"));
        }
        for (s, &e) in config.expands.iter().enumerate() {
            if !(e.is_finite() && e > 0.0) {
                return Err(format!("expands[{s}] = {e} must be finite and positive"));
            }
        }
        if !config.kernels.is_empty() {
            if config.kernels.len() != self.stages.len() {
                return Err(format!(
                    "config has {} kernels, SuperNet has {} stages",
                    config.kernels.len(),
                    self.stages.len()
                ));
            }
            for (s, &k) in config.kernels.iter().enumerate() {
                let maxk = self.stages[s].default_kernel;
                if k == 0 || k > maxk || k % 2 == 0 {
                    return Err(format!("stage {s} kernel {k} invalid (odd, ≤ {maxk})"));
                }
            }
        }
        Ok(())
    }

    /// Lays out the flattened layer list of a zoo skeleton from `family`,
    /// `input_hw` and `stages`, back-fills each layer's maximal dimensions
    /// from the max config, and calibrates the accuracy profile to the
    /// `[a_min, a_max]` band over the achievable FLOP range.
    ///
    /// The list is the stem conv, every stage's blocks at maximal depth,
    /// then the family's head on pooled features. A bottleneck block is
    /// `conv1 [downsample] conv2 conv3`: the downsample (block 0 only) is a
    /// parallel branch, so it reads the block's input resolution and the
    /// strided `conv2` advances it. An MBConv block is
    /// `expand dw [se_reduce se_expand] project`, the SE pair on pooled
    /// features. The spatial kernel is the stage's `default_kernel`, elastic
    /// only when the net has `kernel_choices`.
    ///
    /// # Panics
    /// Panics if the max/min configs fail to materialize — a zoo
    /// construction bug.
    pub(crate) fn finish(mut self, stem: Stem, a_min: f64, a_max: f64, curvature: f64) -> Self {
        let mobilenet = self.family == Family::OfaMobileNetV3;
        let elastic_kernel = !self.elastic.kernel_choices.is_empty();
        let mut layers = Vec::new();
        let mut push = |name: String, stage, block, role, kernel, stride, hw| {
            let spatial = role == LayerRole::Spatial;
            layers.push(ConvLayerDesc {
                id: LayerId(layers.len()),
                name,
                stage,
                block,
                role,
                kind: if mobilenet && spatial { ConvKind::Depthwise } else { ConvKind::Dense },
                max_kernels: usize::MAX,  // back-filled from the max config
                max_channels: usize::MAX, // back-filled from the max config
                max_kernel_size: kernel,
                elastic_kernel: elastic_kernel && spatial,
                stride,
                in_h: hw,
                in_w: hw,
            });
        };
        let mut hw = self.input_hw;
        push("stem".into(), NO_STAGE, 0, LayerRole::Stem, stem.kernel, stem.stride, hw);
        hw = spatial_out(spatial_out(hw, stem.stride), stem.pool);
        for (s, spec) in self.stages.iter().enumerate() {
            let k = spec.default_kernel;
            for b in 0..spec.max_blocks {
                let stride = if b == 0 { spec.stride } else { 1 };
                let p = format!("s{s}.b{b}");
                if mobilenet {
                    push(format!("{p}.expand"), s, b, LayerRole::Expand, 1, 1, hw);
                    push(format!("{p}.dw"), s, b, LayerRole::Spatial, k, stride, hw);
                    if spec.se {
                        push(format!("{p}.se_reduce"), s, b, LayerRole::SeReduce, 1, 1, 1);
                        push(format!("{p}.se_expand"), s, b, LayerRole::SeExpand, 1, 1, 1);
                    }
                } else {
                    push(format!("{p}.conv1"), s, b, LayerRole::Expand, 1, 1, hw);
                    if b == 0 {
                        push(format!("{p}.downsample"), s, b, LayerRole::Downsample, 1, stride, hw);
                    }
                    push(format!("{p}.conv2"), s, b, LayerRole::Spatial, k, stride, hw);
                }
                hw = spatial_out(hw, stride);
                let project = if mobilenet { "project" } else { "conv3" };
                push(format!("{p}.{project}"), s, b, LayerRole::Project, 1, 1, hw);
            }
        }
        let head: &[&str] = if mobilenet { &["final_expand", "fc1", "fc2"] } else { &["fc"] };
        for (b, h) in head.iter().enumerate() {
            push(format!("head.{h}"), NO_STAGE, b, LayerRole::Head, 1, 1, 1);
        }
        self.layers = layers;

        let max_cfg = self.max_config();
        let max_sn = self.materialize("max", &max_cfg).expect("max config must materialize");
        for (layer, slice) in self.layers.iter_mut().zip(max_sn.graph.slices()) {
            assert!(!slice.is_empty(), "layer {} inactive under max config", layer.name);
            layer.max_kernels = slice.kernels;
            layer.max_channels = slice.channels;
        }
        let f_max = self.materialize("max", &max_cfg).expect("max config").flops;
        let f_min = self.materialize("min", &self.min_config()).expect("min config").flops;
        self.accuracy = AccuracyModel::new(a_min, a_max, f_min, f_max, curvature);
        self
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

fn max_f(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min_f(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn round_channels_snaps_to_multiple_of_8() {
        assert_eq!(round_channels(64.0), 64);
        assert_eq!(round_channels(63.0), 64);
        assert_eq!(round_channels(60.0), 64);
        assert_eq!(round_channels(59.0), 56);
        assert_eq!(round_channels(1.0), 8);
        assert_eq!(round_channels(1e30), usize::MAX);
    }

    /// Input resolution of the named layer.
    fn in_hw(net: &SuperNet, name: &str) -> usize {
        net.layers.iter().find(|l| l.name == name).unwrap_or_else(|| panic!("no {name}")).in_h
    }

    #[test]
    fn resnet_layout_tracks_strides() {
        // The stem and its max-pool are pinned by resnet50's
        // `stem_sees_full_resolution_and_stage0_sees_56`.
        let net = zoo::resnet50_supernet();
        // The strided downsample is a parallel branch: it reads the block's
        // input, and conv2 carries the stride on the main path.
        for name in ["s1.b0.conv1", "s1.b0.downsample", "s1.b0.conv2"] {
            assert_eq!(in_hw(&net, name), 56, "{name}");
        }
        assert_eq!(in_hw(&net, "s1.b0.conv3"), 28);
        assert_eq!(in_hw(&net, "head.fc"), 1);
    }

    #[test]
    fn mobilenet_layout_tracks_strides_and_pooled_layers() {
        let net = zoo::mobilenet_v3_supernet();
        assert_eq!(in_hw(&net, "stem"), 224);
        assert_eq!(in_hw(&net, "s0.b0.dw"), 112);
        // Stage 3 has stride 1: it keeps stage 2's 14×14.
        assert_eq!(in_hw(&net, "s3.b0.dw"), 14);
        assert_eq!(in_hw(&net, "s3.b0.project"), 14);
        assert_eq!(in_hw(&net, "s4.b0.project"), 7);
        let pooled = [LayerRole::SeReduce, LayerRole::SeExpand, LayerRole::Head];
        for l in net.layers.iter().filter(|l| pooled.contains(&l.role)) {
            assert_eq!((l.in_h, l.in_w), (1, 1), "{}", l.name);
        }
    }

    #[test]
    fn toy_layouts_track_strides() {
        let (resnet, mobilenet) = (zoo::toy_supernet(), zoo::toy_mobilenet_supernet());
        assert_eq!(in_hw(&resnet, "stem"), 16);
        assert_eq!(in_hw(&mobilenet, "stem"), 16);
        assert_eq!(in_hw(&resnet, "s1.b0.conv3"), 8);
        assert_eq!(in_hw(&mobilenet, "s1.b0.project"), 8);
    }

    #[test]
    fn non_finite_width_or_expand_is_rejected() {
        let net = zoo::mobilenet_v3_supernet();
        for w in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = net.materialize("w", &net.max_config().with_width(w)).unwrap_err();
            assert!(err.contains("width_mult"), "{w}: {err}");
        }
        for e in [f64::NAN, f64::INFINITY, 0.0] {
            let mut cfg = net.max_config();
            cfg.expands[2] = e;
            let err = net.validate_config(&cfg).unwrap_err();
            assert!(err.contains("expands[2]"), "{e}: {err}");
        }
    }

    #[test]
    fn huge_finite_width_clamps_to_the_max_slice() {
        let net = zoo::resnet50_supernet();
        let wide = net.materialize("w", &net.max_config().with_width(1e30)).unwrap();
        assert_eq!(wide.graph, net.full_graph());
        let w2 = net.materialize("w2", &net.max_config().with_width(2.0)).unwrap();
        assert_eq!(wide.graph, w2.graph);
    }

    #[test]
    fn kernels_must_name_every_stage() {
        let net = zoo::mobilenet_v3_supernet();
        for kernels in [vec![3], vec![3; 6]] {
            let n = kernels.len();
            let err = net.validate_config(&net.max_config().with_kernels(kernels)).unwrap_err();
            assert!(err.contains("kernels"), "{n} kernels: {err}");
        }
    }
}

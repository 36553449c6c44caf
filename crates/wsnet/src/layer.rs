//! Convolution layer descriptors and per-layer cost math.
//!
//! A [`ConvLayerDesc`] describes one convolution of the *SuperNet at its
//! maximal dimensions*. SubNets and SubGraphs activate a slice of it (top-K
//! kernels × top-C channels × center kernel window, OFA-style ordering), and
//! all FLOP/byte accounting takes the active slice as a parameter.

/// Index of a layer within a [`crate::arch::SuperNet`]'s flattened layer list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub usize);

/// Whether a convolution is dense or depthwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvKind {
    /// Dense convolution: every kernel sees every input channel.
    Dense,
    /// Depthwise convolution: one kernel per channel (`groups == channels`).
    Depthwise,
}

/// Functional role of a layer inside its block (used for reporting and for
/// family-specific materialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerRole {
    /// Input stem convolution.
    Stem,
    /// 1×1 reduce/expand at a block entry.
    Expand,
    /// Main spatial convolution of a block.
    Spatial,
    /// 1×1 projection at a block exit.
    Project,
    /// Residual downsample projection.
    Downsample,
    /// Squeeze-and-excite reduce (1×1 on pooled features).
    SeReduce,
    /// Squeeze-and-excite expand (1×1 on pooled features).
    SeExpand,
    /// Final feature expansion / classifier head (1×1 on pooled features).
    Head,
}

/// One convolution layer of the SuperNet at maximal (elastic-upper-bound) size.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvLayerDesc {
    /// Position in the SuperNet's flattened layer list.
    pub id: LayerId,
    /// Human-readable name, e.g. `"s2.b1.conv2"`.
    pub name: String,
    /// Stage index this layer belongs to (stem/head use `usize::MAX`).
    pub stage: usize,
    /// Block index within the stage (stem/head use `usize::MAX`).
    pub block: usize,
    /// Role within the block.
    pub role: LayerRole,
    /// Dense or depthwise.
    pub kind: ConvKind,
    /// Maximum number of kernels `K` (output channels).
    pub max_kernels: usize,
    /// Maximum number of input channels `C`.
    pub max_channels: usize,
    /// Maximum (and default) square kernel size.
    pub max_kernel_size: usize,
    /// Whether the kernel size is elastic (OFA center-crop semantics).
    pub elastic_kernel: bool,
    /// Spatial stride.
    pub stride: usize,
    /// Input feature-map height (fixed across SubNets).
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
}

/// An active slice of one layer: top-`kernels` × top-`channels` ×
/// center-`kernel_size` window. `(0, 0, _)` means the layer is inactive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSlice {
    /// Active kernel count (output channels).
    pub kernels: usize,
    /// Active input channel count.
    pub channels: usize,
    /// Active square kernel size (center crop of the max kernel).
    pub kernel_size: usize,
}

impl LayerSlice {
    /// An inactive (empty) slice.
    #[must_use]
    pub const fn empty() -> Self {
        Self { kernels: 0, channels: 0, kernel_size: 0 }
    }

    /// Creates an active slice.
    #[must_use]
    pub const fn new(kernels: usize, channels: usize, kernel_size: usize) -> Self {
        Self { kernels, channels, kernel_size }
    }

    /// Whether the slice activates no weights.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.kernels == 0 || self.channels == 0 || self.kernel_size == 0
    }

    /// Lattice meet: the largest slice contained in both (shared weights).
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Self {
        Self {
            kernels: self.kernels.min(other.kernels),
            channels: self.channels.min(other.channels),
            kernel_size: self.kernel_size.min(other.kernel_size),
        }
    }

    /// Lattice join: the smallest slice containing both.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            kernels: self.kernels.max(other.kernels),
            channels: self.channels.max(other.channels),
            kernel_size: self.kernel_size.max(other.kernel_size),
        }
    }

    /// Whether `self` is contained in `other` (all weights shared).
    #[must_use]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.is_empty()
            || (self.kernels <= other.kernels
                && self.channels <= other.channels
                && self.kernel_size <= other.kernel_size)
    }
}

impl ConvLayerDesc {
    /// Output spatial height (same padding `k/2`, fixed across kernel choices
    /// because OFA pads each elastic kernel to keep spatial dims constant).
    #[must_use]
    pub fn out_h(&self) -> usize {
        spatial_out(self.in_h, self.stride)
    }

    /// Output spatial width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        spatial_out(self.in_w, self.stride)
    }

    /// The maximal slice of this layer.
    #[must_use]
    pub fn max_slice(&self) -> LayerSlice {
        LayerSlice::new(self.max_kernels, self.max_channels, self.max_kernel_size)
    }

    /// Clamps a slice to this layer's maxima.
    #[must_use]
    pub fn clamp_slice(&self, s: LayerSlice) -> LayerSlice {
        LayerSlice {
            kernels: s.kernels.min(self.max_kernels),
            channels: s.channels.min(self.max_channels),
            kernel_size: if s.kernel_size == 0 {
                0
            } else {
                s.kernel_size.min(self.max_kernel_size)
            },
        }
    }

    /// Multiply-accumulate count for an active slice.
    ///
    /// Depthwise layers perform `K · R · S` MACs per output pixel (channels
    /// field is per-group = 1); dense layers perform `K · C · R · S`.
    #[must_use]
    pub fn macs(&self, s: &LayerSlice) -> u64 {
        if s.is_empty() {
            return 0;
        }
        let spatial = (self.out_h() * self.out_w()) as u64;
        let rs = (s.kernel_size * s.kernel_size) as u64;
        match self.kind {
            ConvKind::Dense => s.kernels as u64 * s.channels as u64 * rs * spatial,
            ConvKind::Depthwise => s.kernels as u64 * rs * spatial,
        }
    }

    /// FLOPs (2 × MACs) for an active slice.
    #[must_use]
    pub fn flops(&self, s: &LayerSlice) -> u64 {
        2 * self.macs(s)
    }

    /// Weight bytes (int8) for an active slice, including per-kernel int32
    /// scale and bias words (footnote 3 of the paper).
    #[must_use]
    pub fn weight_bytes(&self, s: &LayerSlice) -> u64 {
        if s.is_empty() {
            return 0;
        }
        let rs = (s.kernel_size * s.kernel_size) as u64;
        let core = match self.kind {
            ConvKind::Dense => s.kernels as u64 * s.channels as u64 * rs,
            ConvKind::Depthwise => s.kernels as u64 * rs,
        };
        core + 8 * s.kernels as u64 // i32 scale + i32 bias per kernel
    }

    /// Input activation bytes (int8) for an active slice.
    ///
    /// Depthwise layers read `kernels` channels (the slice's channel field is
    /// per-group); dense layers read `channels`.
    #[must_use]
    pub fn iact_bytes(&self, s: &LayerSlice) -> u64 {
        if s.is_empty() {
            return 0;
        }
        let ch = match self.kind {
            ConvKind::Dense => s.channels,
            ConvKind::Depthwise => s.kernels,
        };
        (ch * self.in_h * self.in_w) as u64
    }

    /// Output activation bytes (int8) for an active slice.
    #[must_use]
    pub fn oact_bytes(&self, s: &LayerSlice) -> u64 {
        if s.is_empty() {
            return 0;
        }
        (s.kernels * self.out_h() * self.out_w()) as u64
    }

    /// Total bytes moved assuming no on-chip reuse (weights + iActs + oActs).
    #[must_use]
    pub fn total_bytes(&self, s: &LayerSlice) -> u64 {
        self.weight_bytes(s) + self.iact_bytes(s) + self.oact_bytes(s)
    }

    /// Arithmetic intensity (FLOPs per byte moved) — the Fig. 2 metric.
    #[must_use]
    pub fn arithmetic_intensity(&self, s: &LayerSlice) -> f64 {
        let bytes = self.total_bytes(s);
        if bytes == 0 {
            return 0.0;
        }
        self.flops(s) as f64 / bytes as f64
    }
}

/// Spatial output size under OFA "same" padding: `ceil(in / stride)`.
#[must_use]
pub fn spatial_out(input: usize, stride: usize) -> usize {
    input.div_ceil(stride.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_layer() -> ConvLayerDesc {
        ConvLayerDesc {
            id: LayerId(0),
            name: "test.conv".into(),
            stage: 0,
            block: 0,
            role: LayerRole::Spatial,
            kind: ConvKind::Dense,
            max_kernels: 64,
            max_channels: 32,
            max_kernel_size: 3,
            elastic_kernel: false,
            stride: 1,
            in_h: 8,
            in_w: 8,
        }
    }

    fn depthwise_layer() -> ConvLayerDesc {
        ConvLayerDesc {
            kind: ConvKind::Depthwise,
            max_channels: 1,
            max_kernel_size: 7,
            elastic_kernel: true,
            ..dense_layer()
        }
    }

    #[test]
    fn spatial_out_same_padding() {
        assert_eq!(spatial_out(56, 1), 56);
        assert_eq!(spatial_out(56, 2), 28);
        assert_eq!(spatial_out(57, 2), 29);
    }

    #[test]
    fn macs_scale_with_slice_dims() {
        let l = dense_layer();
        let full = l.macs(&l.max_slice());
        let half = l.macs(&LayerSlice::new(32, 32, 3));
        assert_eq!(full, 64 * 32 * 9 * 64);
        assert_eq!(half * 2, full);
    }

    #[test]
    fn empty_slice_costs_nothing() {
        let l = dense_layer();
        let e = LayerSlice::empty();
        assert_eq!(l.macs(&e), 0);
        assert_eq!(l.weight_bytes(&e), 0);
        assert_eq!(l.iact_bytes(&e), 0);
        assert_eq!(l.oact_bytes(&e), 0);
    }

    #[test]
    fn depthwise_macs_ignore_channel_dim() {
        let l = depthwise_layer();
        let s = LayerSlice::new(64, 1, 7);
        assert_eq!(l.macs(&s), 64 * 49 * 64);
    }

    #[test]
    fn depthwise_iact_reads_kernel_count_channels() {
        let l = depthwise_layer();
        let s = LayerSlice::new(40, 1, 5);
        assert_eq!(l.iact_bytes(&s), 40 * 8 * 8);
    }

    #[test]
    fn weight_bytes_include_scale_and_bias() {
        let l = dense_layer();
        let s = LayerSlice::new(2, 4, 3);
        assert_eq!(l.weight_bytes(&s), 2 * 4 * 9 + 8 * 2);
    }

    #[test]
    fn smaller_kernel_crop_shrinks_weights_quadratically() {
        let l = depthwise_layer();
        let w7 = l.weight_bytes(&LayerSlice::new(8, 1, 7)) - 8 * 8;
        let w3 = l.weight_bytes(&LayerSlice::new(8, 1, 3)) - 8 * 8;
        assert_eq!(w7 / w3, 49 / 9);
    }

    #[test]
    fn intersect_is_elementwise_min() {
        let a = LayerSlice::new(10, 20, 7);
        let b = LayerSlice::new(15, 10, 5);
        assert_eq!(a.intersect(&b), LayerSlice::new(10, 10, 5));
    }

    #[test]
    fn union_is_elementwise_max() {
        let a = LayerSlice::new(10, 20, 7);
        let b = LayerSlice::new(15, 10, 5);
        assert_eq!(a.union(&b), LayerSlice::new(15, 20, 7));
    }

    #[test]
    fn subset_reflexive_and_empty_is_universal_bottom() {
        let a = LayerSlice::new(10, 20, 7);
        assert!(a.is_subset_of(&a));
        assert!(LayerSlice::empty().is_subset_of(&a));
        assert!(!a.is_subset_of(&LayerSlice::new(9, 20, 7)));
    }

    #[test]
    fn clamp_slice_respects_maxima() {
        let l = dense_layer();
        let s = l.clamp_slice(LayerSlice::new(1000, 1000, 9));
        assert_eq!(s, l.max_slice());
    }

    #[test]
    fn arithmetic_intensity_grows_with_channels() {
        // More channels -> more reuse of each activation byte -> higher AI.
        let l = dense_layer();
        let small = l.arithmetic_intensity(&LayerSlice::new(64, 8, 3));
        let large = l.arithmetic_intensity(&LayerSlice::new(64, 32, 3));
        assert!(large > small);
    }

    #[test]
    fn stride_halves_output_dims() {
        let l = ConvLayerDesc { stride: 2, ..dense_layer() };
        assert_eq!(l.out_h(), 4);
        assert_eq!(l.out_w(), 4);
    }
}

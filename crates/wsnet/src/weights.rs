//! Deterministic synthetic SuperNet weight storage.
//!
//! The SuperNet stores one int8 tensor per layer at *maximal* dimensions;
//! every SubNet/SubGraph is a view into it (the whole point of weight
//! sharing: "it obviates the need to store these model variants
//! separately"). Weights are synthesized deterministically from a seed so
//! every experiment is reproducible; they substitute for real OFA
//! checkpoints, since serving behaviour does not depend on weight values.

use sushi_tensor::{DetRng, QuantParams, Shape4, Tensor};

use crate::arch::SuperNet;
use crate::layer::{ConvKind, LayerSlice};

/// Weights, quantization parameters and biases of one SuperNet layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Int8 kernel tensor `(K_max, C_max, R_max, S_max)` (depthwise: `C = 1`).
    pub kernels: Tensor<i8>,
    /// Weight quantization parameters.
    pub w_q: QuantParams,
    /// Per-kernel int32 bias.
    pub bias: Vec<i32>,
}

/// All layer weights of a SuperNet.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightStore {
    layers: Vec<LayerWeights>,
}

impl WeightStore {
    /// Synthesizes deterministic weights for every layer of `net`.
    #[must_use]
    pub fn synthesize(net: &SuperNet, seed: u64) -> Self {
        let mut root = DetRng::new(seed);
        let layers = net
            .layers
            .iter()
            .map(|layer| {
                let mut rng = root.fork(layer.id.0 as u64);
                let c = match layer.kind {
                    ConvKind::Dense => layer.max_channels,
                    ConvKind::Depthwise => 1,
                };
                let shape =
                    Shape4::new(layer.max_kernels, c, layer.max_kernel_size, layer.max_kernel_size);
                let data: Vec<i8> = (0..shape.volume()).map(|_| rng.next_i8()).collect();
                let kernels = Tensor::from_vec(shape, data).expect("shape/volume consistent");
                // Fan-in-aware scale (He-style) so activations keep roughly
                // unit variance through the network instead of saturating.
                let fan_in = (c * layer.max_kernel_size * layer.max_kernel_size) as f32;
                let w_q = QuantParams::new((0.02 / fan_in.sqrt()).max(1e-6), 0);
                let bias =
                    (0..layer.max_kernels).map(|_| (rng.next_u64() % 512) as i32 - 256).collect();
                LayerWeights { kernels, w_q, bias }
            })
            .collect();
        Self { layers }
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weights of one layer.
    ///
    /// # Panics
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer(&self, layer: usize) -> &LayerWeights {
        &self.layers[layer]
    }

    /// Extracts the active weight slice of a layer as a standalone tensor:
    /// top-`kernels` × top-`channels` × *center* `kernel_size` window
    /// (OFA center-crop semantics for elastic kernels).
    ///
    /// The copy runs at memory speed: an uncropped kernel's active channels
    /// are the leading `c·R·S` bytes of its stored kernel, one slice copy
    /// each; a center-cropped kernel copies its `kernel_size`-byte rows.
    ///
    /// Returns `None` for an empty slice.
    ///
    /// # Panics
    /// Panics if `layer` is out of range or the slice exceeds stored maxima.
    #[must_use]
    pub fn slice_tensor(&self, layer: usize, slice: &LayerSlice) -> Option<Tensor<i8>> {
        if slice.is_empty() {
            return None;
        }
        let lw = &self.layers[layer];
        let full = lw.kernels.shape();
        let c = slice.channels.min(full.c); // depthwise slices carry c=1 already
        let ks = slice.kernel_size;
        assert!(slice.kernels <= full.n, "slice kernels exceed layer maximum");
        assert!(ks <= full.h, "slice kernel size exceeds layer maximum");
        let crop = (full.h - ks) / 2;
        let shape = Shape4::new(slice.kernels, c, ks, ks);
        let mut data = Vec::with_capacity(shape.volume());
        if ks == full.h && ks == full.w {
            let stored = full.c * full.h * full.w;
            for kernel in lw.kernels.as_slice().chunks_exact(stored).take(slice.kernels) {
                data.extend_from_slice(&kernel[..c * ks * ks]);
            }
        } else {
            for k in 0..slice.kernels {
                for ch in 0..c {
                    for y in crop..crop + ks {
                        data.extend_from_slice(&lw.kernels.row(k, ch, y)[crop..crop + ks]);
                    }
                }
            }
        }
        Some(Tensor::from_vec(shape, data).expect("one value per cell of the slice"))
    }

    /// Bias slice for the active kernels of a layer.
    ///
    /// # Panics
    /// Panics if `layer` is out of range or the slice exceeds stored maxima.
    #[must_use]
    pub fn bias_slice(&self, layer: usize, slice: &LayerSlice) -> &[i32] {
        &self.layers[layer].bias[..slice.kernels]
    }

    /// Total stored bytes (kernel tensors only).
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.kernels.len() as u64).sum()
    }

    /// Mutable access to a layer's kernel tensor, for tests that perturb
    /// weights to verify sharing semantics. Not part of the public contract.
    #[doc(hidden)]
    pub fn layer_mut_for_tests(&mut self, layer: usize) -> &mut Tensor<i8> {
        &mut self.layers[layer].kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn synthesis_is_deterministic() {
        let net = zoo::toy_supernet();
        let a = WeightStore::synthesize(&net, 42);
        let b = WeightStore::synthesize(&net, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let net = zoo::toy_supernet();
        let a = WeightStore::synthesize(&net, 1);
        let b = WeightStore::synthesize(&net, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn store_covers_every_layer_at_max_dims() {
        let net = zoo::toy_supernet();
        let ws = WeightStore::synthesize(&net, 7);
        assert_eq!(ws.num_layers(), net.num_layers());
        for (i, layer) in net.layers.iter().enumerate() {
            let shape = ws.layer(i).kernels.shape();
            assert_eq!(shape.n, layer.max_kernels, "layer {}", layer.name);
            assert_eq!(shape.h, layer.max_kernel_size);
        }
    }

    #[test]
    fn slice_tensor_takes_top_left_corner_of_k_c() {
        let net = zoo::toy_supernet();
        let ws = WeightStore::synthesize(&net, 7);
        let layer = 1; // a stage conv with nontrivial dims
        let full = net.layers[layer].max_slice();
        let half = LayerSlice::new(
            (full.kernels / 2).max(1),
            (full.channels / 2).max(1),
            full.kernel_size,
        );
        let t = ws.slice_tensor(layer, &half).unwrap();
        assert_eq!(t.shape().n, half.kernels);
        // Shared prefix property: slice values match the full tensor's top corner.
        let full_t = ws.slice_tensor(layer, &full).unwrap();
        assert_eq!(t.get(0, 0, 0, 0), full_t.get(0, 0, 0, 0));
    }

    #[test]
    fn slice_tensor_center_crops_kernel_window() {
        let net = zoo::toy_mobilenet_supernet();
        let ws = WeightStore::synthesize(&net, 3);
        // Find a depthwise layer with 5x5 max kernel.
        let (idx, layer) = net
            .layers
            .iter()
            .enumerate()
            .find(|(_, l)| l.kind == ConvKind::Depthwise && l.max_kernel_size == 5)
            .expect("toy mobilenet has a 5x5 depthwise layer");
        let full = ws.slice_tensor(idx, &layer.max_slice()).unwrap();
        let s3 = LayerSlice::new(8, 1, 3);
        let cropped = ws.slice_tensor(idx, &s3).unwrap();
        // Center crop of a 5x5 window starts at offset 1.
        assert_eq!(cropped.get(0, 0, 0, 0), full.get(0, 0, 1, 1));
        assert_eq!(cropped.get(0, 0, 2, 2), full.get(0, 0, 3, 3));
    }

    #[test]
    fn empty_slice_yields_none() {
        let net = zoo::toy_supernet();
        let ws = WeightStore::synthesize(&net, 7);
        assert!(ws.slice_tensor(0, &LayerSlice::empty()).is_none());
    }

    #[test]
    fn bias_slice_length_matches_kernels() {
        let net = zoo::toy_supernet();
        let ws = WeightStore::synthesize(&net, 7);
        let s = LayerSlice::new(4, 3, 3);
        assert_eq!(ws.bias_slice(0, &s).len(), 4);
    }
}

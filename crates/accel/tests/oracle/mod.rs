//! The structural oracle of the functional datapath: a per-layer
//! interpreter that walks the SuperNet's stem, stages and head directly.
//!
//! It shares nothing with the library's executor — no `SubgraphCache`, no
//! IR, no plan, no packed panels, no arena. Weights are sliced out of the
//! store per layer and every convolution runs the naive direct loops
//! ([`KernelPolicy::Naive`]). This was the library's datapath before the IR
//! existed; `proptest_fusion.rs` requires every lowered plan, under either
//! rewrite catalog, to reproduce its logits bit for bit.

use sushi_accel::functional::act_quant;
use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::conv2d_i8_with;
use sushi_tensor::ops::pool::{global_avg_pool, max_pool, PoolParams};
use sushi_tensor::quant::{dequantize_tensor, quantize_tensor};
use sushi_tensor::{KernelPolicy, Tensor};
use sushi_wsnet::arch::NO_STAGE;
use sushi_wsnet::ir_build::layer_conv_params;
use sushi_wsnet::layer::LayerRole;
use sushi_wsnet::{Family, SubNet, SuperNet, WeightStore};

struct Interpreter<'a> {
    net: &'a SuperNet,
    store: &'a WeightStore,
    subnet: &'a SubNet,
}

/// Dequantized logits of `subnet` on `input` (`(B, 3, H, W)`, quantized
/// with [`act_quant`]), flattened in batch order.
pub fn logits(
    net: &SuperNet,
    store: &WeightStore,
    subnet: &SubNet,
    input: &Tensor<i8>,
) -> Vec<f32> {
    Interpreter { net, store, subnet }.run(input)
}

/// Int8 activation: ReLU is exact on zero-point-0 data; the h-family applies
/// in the dequantized domain and requantizes.
fn activate(x: &Tensor<i8>, act: Activation) -> Tensor<i8> {
    match act {
        Activation::None => x.clone(),
        Activation::Relu => x.map(|v| v.max(0)),
        _ => quantize_tensor(&act.apply_tensor(&dequantize_tensor(x, act_quant())), act_quant()),
    }
}

fn saturating_add(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(a.shape(), b.shape(), "residual add");
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x.saturating_add(y)).collect();
    Tensor::from_vec(a.shape(), data).expect("same shape")
}

fn pooled(x: &Tensor<i8>) -> Tensor<i8> {
    quantize_tensor(&global_avg_pool(&dequantize_tensor(x, act_quant())), act_quant())
}

impl Interpreter<'_> {
    fn active(&self, idx: usize) -> bool {
        !self.subnet.graph.slice(idx).is_empty()
    }

    /// Conv layer `idx` on `x`: slice, naive conv with bias, requantize,
    /// then `act`.
    fn conv(&self, idx: usize, x: &Tensor<i8>, act: Activation) -> Tensor<i8> {
        let slice = self.subnet.graph.slice(idx);
        let weights = self.store.slice_tensor(idx, &slice).expect("conv on an inactive layer");
        let y = conv2d_i8_with(
            x,
            act_quant(),
            &weights,
            self.store.layer(idx).w_q,
            Some(self.store.bias_slice(idx, &slice)),
            act_quant(),
            &layer_conv_params(&self.net.layers[idx], &slice),
            KernelPolicy::Naive,
        )
        .expect("zoo layer executes");
        activate(&y, act)
    }

    fn run(&self, input: &Tensor<i8>) -> Vec<f32> {
        let layers = &self.net.layers;
        let mut idx = 0usize;
        assert_eq!(layers[idx].role, LayerRole::Stem);
        let mut x = self.conv(idx, input, Activation::Relu);
        idx += 1;
        if self.net.family == Family::OfaResNet50 {
            // Stem max-pool (3x3, stride 2); monotone quantization makes
            // pooling in the dequantized domain exact.
            let p = PoolParams { window: 3, stride: 2, padding: 1 };
            let f = max_pool(&dequantize_tensor(&x, act_quant()), &p).expect("stem pool");
            x = quantize_tensor(&f, act_quant());
        }
        while idx < layers.len() && layers[idx].stage != NO_STAGE {
            let (next, y) = self.block(idx, &x);
            if let Some(y) = y {
                x = y;
            }
            idx = next;
        }
        // Head: global pool then 1x1 convs on pooled features.
        let mut h = pooled(&x);
        while idx < layers.len() {
            assert_eq!(layers[idx].role, LayerRole::Head);
            let act = if idx + 1 < layers.len() { Activation::Relu } else { Activation::None };
            h = self.conv(idx, &h, act);
            idx += 1;
        }
        dequantize_tensor(&h, act_quant()).as_slice().to_vec()
    }

    /// One block starting at layer `idx`: the index after the block and its
    /// output (`None` when the SubNet leaves the block out).
    fn block(&self, idx: usize, x: &Tensor<i8>) -> (usize, Option<Tensor<i8>>) {
        let layers = &self.net.layers;
        let (stage, block) = (layers[idx].stage, layers[idx].block);
        let mut end = idx;
        while end < layers.len() && layers[end].stage == stage && layers[end].block == block {
            end += 1;
        }
        if !self.active(idx) {
            return (end, None);
        }
        let find = |role: LayerRole| (idx..end).find(|&i| layers[i].role == role);
        let expand = find(LayerRole::Expand).expect("block expand conv");
        let spatial = find(LayerRole::Spatial).expect("block spatial conv");
        let project = find(LayerRole::Project).expect("block project conv");
        let out = match self.net.family {
            Family::OfaResNet50 => {
                let y = self.conv(expand, x, Activation::Relu);
                let y = self.conv(spatial, &y, Activation::Relu);
                let y = self.conv(project, &y, Activation::None);
                let summed = if let Some(ds) = find(LayerRole::Downsample) {
                    saturating_add(&y, &self.conv(ds, x, Activation::None))
                } else if x.shape() == y.shape() {
                    saturating_add(&y, x)
                } else {
                    y
                };
                activate(&summed, Activation::Relu)
            }
            Family::OfaMobileNetV3 => {
                let y = self.conv(expand, x, Activation::HSwish);
                let mut y = self.conv(spatial, &y, Activation::HSwish);
                if let (Some(r), Some(e)) = (find(LayerRole::SeReduce), find(LayerRole::SeExpand)) {
                    y = self.squeeze_excite(r, e, &y);
                }
                let y = self.conv(project, &y, Activation::None);
                if x.shape() == y.shape() {
                    saturating_add(&y, x)
                } else {
                    y
                }
            }
        };
        (end, Some(out))
    }

    /// SE module: pooled 1×1 reduce (ReLU) → 1×1 expand (h-sigmoid) →
    /// channel-wise rescale of `y` in the dequantized domain.
    fn squeeze_excite(&self, reduce: usize, expand: usize, y: &Tensor<i8>) -> Tensor<i8> {
        let g = self.conv(reduce, &pooled(y), Activation::Relu);
        let g = self.conv(expand, &g, Activation::None);
        let gate = Activation::HSigmoid.apply_tensor(&dequantize_tensor(&g, act_quant()));
        let mut yf = dequantize_tensor(y, act_quant());
        let shape = yf.shape();
        for n in 0..shape.n {
            for c in 0..shape.c {
                let gv = gate.get(n, c, 0, 0);
                for h in 0..shape.h {
                    for v in yf.row_mut(n, c, h) {
                        *v *= gv;
                    }
                }
            }
        }
        quantize_tensor(&yf, act_quant())
    }
}

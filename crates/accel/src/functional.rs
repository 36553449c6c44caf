//! End-to-end functional forward pass over a materialized SubNet.
//!
//! One datapath: installing a SubNet ([`SubgraphCache`]) slices its weights,
//! lowers its IR to a [`Plan`] and packs each layer in the one layout its
//! plan step reads; every forward then executes that plan step by step
//! through the DPE-array datapath ([`crate::dpe::DpeArray`]) — residual
//! connections, squeeze-excite gating and the pooled classifier head
//! included — on real int8 data. Used by the functional serving backend,
//! the `functional_inference` example and the cross-crate validation tests;
//! full-size experiments use timing-only mode instead.

use sushi_ir::{Plan, Step};
use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::{conv2d_i8_fused, Conv2dParams};
use sushi_tensor::ops::pool::{global_avg_pool, max_pool, PoolParams};
use sushi_tensor::quant::{dequantize_tensor, quantize_tensor};
use sushi_tensor::{
    Arena, Epilogue, PackLayout, PackedConv2d, QuantParams, Shape4, Tensor, TensorError,
};
use sushi_wsnet::ir_build::{build_plan, layer_conv_params};
use sushi_wsnet::{SubGraph, SubNet, SuperNet, WeightStore};

use crate::dpe::DpeArray;

/// Activation quantization shared across the network (symmetric ±8 range).
const ACT_Q: QuantParams = QuantParams { scale: 8.0 / 127.0, zero_point: 0 };

/// Install-time state for one conv the IR lowered onto the fused k-pair
/// datapath: pair-interleaved weight panels plus the baked
/// bias/requantization/activation epilogue the microkernel applies at
/// writeback. Built once per cache install, read in place per query.
#[derive(Debug, Clone)]
pub struct FusedLayer {
    /// K-pair packed weight panels for the `pmaddwd` microkernel.
    pub packed: PackedConv2d,
    /// The fused writeback: bias + requantization + activation.
    pub epilogue: Epilogue,
}

/// One layer's install-time state: the sliced weights/bias (so queries
/// never re-slice the shared SuperNet store) plus the weight panels in the
/// one layout the layer's plan step reads — at most one of `packed` and
/// `fused` is set.
#[derive(Debug, Clone)]
pub struct CachedLayer {
    /// Weights sliced to the SubNet (`(K, C/g, R, S)`).
    pub weights: Tensor<i8>,
    /// Bias sliced to the SubNet.
    pub bias: Vec<i32>,
    /// Weight quantization.
    pub w_q: QuantParams,
    /// Panel-layout GEMM weights, for a dense layer read by a
    /// [`Step::Conv`] or [`Step::SqueezeExcite`] (a depthwise layer runs
    /// the depthwise kernel, which reads `weights` directly).
    pub packed: Option<PackedConv2d>,
    /// Fused-datapath state, for a layer read by a [`Step::FusedConv`].
    pub fused: Option<FusedLayer>,
    /// The conv hyper-parameters the slice resolves to.
    pub params: Conv2dParams,
}

/// Install-time state for one SubGraph: what the paper's Persistent Buffer
/// holds, in host-software form.
///
/// Built **once** per cache install; every subsequent forward under the
/// same SubGraph executes the lowered plan against the sliced weights and
/// packed panels in place. Weight slicing, IR lowering and packing are
/// thereby *subgraph-stationary*: their cost is charged once per install
/// and amortized across all queries served under the cached SubGraph, never
/// paid per query (pinned by `tests/pack_once.rs` via
/// [`Arena::weight_packs`]).
#[derive(Debug, Clone)]
pub struct SubgraphCache {
    layers: Vec<Option<CachedLayer>>,
    graph: SubGraph,
    plan: Plan,
}

impl SubgraphCache {
    /// Installs `subnet` with fusion off: every conv lowers to the plain
    /// [`Step::Conv`] (see [`build_plan`]), so dense layers hold
    /// panel-layout weights. Logits are bit-identical to
    /// [`SubgraphCache::build_fused`] installs (pinned by
    /// `tests/proptest_fusion.rs`).
    ///
    /// # Errors
    /// As [`SubgraphCache::build_fused`].
    pub fn build(
        net: &SuperNet,
        store: &WeightStore,
        subnet: &SubNet,
    ) -> Result<Self, TensorError> {
        Self::install(net, store, subnet, false)
    }

    /// Installs `subnet` with fusion on: convs the IR routed onto the
    /// k-pair datapath hold pair-interleaved panels and a baked
    /// bias/requant/activation [`Epilogue`].
    ///
    /// # Errors
    /// Returns an error when weights cannot be sliced or packed, or the
    /// SubNet's IR fails to build, normalize or lower (inconsistent zoo
    /// definitions — a programming error).
    pub fn build_fused(
        net: &SuperNet,
        store: &WeightStore,
        subnet: &SubNet,
    ) -> Result<Self, TensorError> {
        Self::install(net, store, subnet, true)
    }

    /// The one install body: slice every active layer, lower the SubNet's
    /// IR with `fusion` on or off, then pack each layer in
    /// exactly the layout its plan step reads.
    pub(crate) fn install(
        net: &SuperNet,
        store: &WeightStore,
        subnet: &SubNet,
        fusion: bool,
    ) -> Result<Self, TensorError> {
        let mut layers = Vec::with_capacity(net.num_layers());
        for (idx, layer) in net.layers.iter().enumerate() {
            let slice = subnet.graph.slice(idx);
            if slice.is_empty() {
                layers.push(None);
                continue;
            }
            let weights = store
                .slice_tensor(idx, &slice)
                .ok_or(TensorError::InvalidParam { what: "active slice without weights" })?;
            layers.push(Some(CachedLayer {
                weights,
                bias: store.bias_slice(idx, &slice).to_vec(),
                w_q: store.layer(idx).w_q,
                packed: None,
                fused: None,
                params: layer_conv_params(layer, &slice),
            }));
        }
        let plan = build_plan(net, subnet, fusion)
            .map_err(|_| TensorError::InvalidParam { what: "SubNet IR failed to lower" })?;
        for step in &plan.steps {
            match step {
                Step::Conv { layer, .. } => pack_panel(&mut layers, *layer)?,
                Step::SqueezeExcite { reduce, expand, .. } => {
                    pack_panel(&mut layers, *reduce)?;
                    pack_panel(&mut layers, *expand)?;
                }
                Step::FusedConv { layer, bias, act, .. } => {
                    let cl = active_mut(&mut layers, *layer)?;
                    cl.fused = Some(fuse(cl, *bias, *act)?);
                }
                _ => {}
            }
        }
        Ok(Self { layers, graph: subnet.graph.clone(), plan })
    }

    /// The lowered IR plan every forward under this cache executes (always
    /// present; the `Option` is kept for callers that predate the single
    /// executor).
    #[must_use]
    pub fn plan(&self) -> Option<&Plan> {
        Some(&self.plan)
    }

    /// Whether this cache was built for exactly `graph`.
    #[must_use]
    pub fn matches(&self, graph: &SubGraph) -> bool {
        &self.graph == graph
    }

    /// The cached state for layer `idx` (`None` when inactive).
    #[must_use]
    pub fn layer(&self, idx: usize) -> Option<&CachedLayer> {
        self.layers.get(idx).and_then(Option::as_ref)
    }

    /// [`SubgraphCache::layer`] for a plan step, which may only name active
    /// layers.
    fn active(&self, idx: usize) -> Result<&CachedLayer, TensorError> {
        self.layer(idx)
            .ok_or(TensorError::InvalidParam { what: "plan step names a layer the cache lacks" })
    }

    /// Number of layers holding panel-layout GEMM weights.
    #[must_use]
    pub fn packed_layers(&self) -> usize {
        self.layers.iter().flatten().filter(|l| l.packed.is_some()).count()
    }

    /// Number of layers holding fused k-pair state.
    #[must_use]
    pub fn fused_layers(&self) -> usize {
        self.layers.iter().flatten().filter(|l| l.fused.is_some()).count()
    }

    /// Bytes held by the packed panels, in either layout (excluding the
    /// sliced weight copies).
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .filter_map(|l| l.packed.as_ref().or(l.fused.as_ref().map(|f| &f.packed)))
            .map(PackedConv2d::packed_bytes)
            .sum()
    }
}

fn active_mut(
    layers: &mut [Option<CachedLayer>],
    idx: usize,
) -> Result<&mut CachedLayer, TensorError> {
    layers
        .get_mut(idx)
        .and_then(Option::as_mut)
        .ok_or(TensorError::InvalidParam { what: "plan step on an inactive layer" })
}

/// Panel-packs dense layer `idx` for the GEMM path of
/// [`DpeArray::conv2d_i8_in`]; depthwise layers stay unpacked.
fn pack_panel(layers: &mut [Option<CachedLayer>], idx: usize) -> Result<(), TensorError> {
    let cl = active_mut(layers, idx)?;
    if cl.params.groups == 1 {
        let panel = PackLayout::Panel;
        cl.packed = Some(PackedConv2d::pack_with_layout(&cl.weights, cl.w_q, &cl.params, panel)?);
    }
    Ok(())
}

/// K-pair-packs a layer and bakes the epilogue of the fused step reading it.
fn fuse(cl: &CachedLayer, bias: bool, act: Activation) -> Result<FusedLayer, TensorError> {
    let packed =
        PackedConv2d::pack_with_layout(&cl.weights, cl.w_q, &cl.params, PackLayout::KPair)?;
    let bias_vec = if bias { cl.bias.clone() } else { vec![0i32; cl.weights.shape().n] };
    // Same accumulator→output rescale expression as the unfused datapath
    // (`conv2d_i8_in`), so the epilogue is bit-identical to
    // requantize-then-activate.
    let acc_scale = ACT_Q.scale * cl.w_q.scale / ACT_Q.scale;
    let epilogue = Epilogue::uniform(bias_vec, acc_scale, ACT_Q, act)?;
    Ok(FusedLayer { packed, epilogue })
}

/// Output of a functional forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalOutput {
    /// Dequantized classifier scores.
    pub logits: Vec<f32>,
    /// Index of the maximum score.
    pub prediction: usize,
}

/// The one-input case of [`forward_batch_cached`]: a full int8 forward
/// pass of `subnet` on `input`, an NCHW `(1, 3, H, W)` tensor quantized with
/// [`act_quant`] at the SuperNet's input resolution.
///
/// # Errors
/// As [`forward_batch_cached`].
pub fn forward_cached(
    dpe: &DpeArray,
    net: &SuperNet,
    store: &WeightStore,
    subnet: &SubNet,
    cache: Option<&SubgraphCache>,
    arena: &mut Arena,
    input: &Tensor<i8>,
) -> Result<FunctionalOutput, TensorError> {
    let inputs = std::slice::from_ref(input);
    Ok(forward_batch_cached(dpe, net, store, subnet, cache, arena, inputs)?.remove(0))
}

/// Executes the installed plan of `cache` on a batch of inputs.
///
/// Each input must be a `(1, 3, H, W)` tensor quantized with [`act_quant`]
/// at the SuperNet's input resolution. The inputs are stacked along the
/// batch dimension and flow through the datapath as a single `(B, 3, H, W)`
/// pass — every convolution touches each weight once per *batch* instead of
/// once per *query*, the within-batch analogue of SubGraph-Stationary
/// reuse. Outputs are returned in input order.
///
/// The cache's sliced weights and packed panels are read in place, and the
/// caller-owned [`Arena`] is reused across queries, so the steady state
/// performs no per-query weight packing or scratch allocation. Without a
/// cache (`None`) an unfused one is installed for this call alone.
///
/// Every unfused convolution executes through `dpe`, so the array's
/// [`sushi_tensor::KernelPolicy`] (see [`DpeArray::with_policy`]) governs
/// host-simulation speed: `Naive` pins the cycle-faithful tiled schedule,
/// `Auto`/`Im2colGemm` route large dense layers through the bit-identical
/// im2col + blocked-GEMM fast path.
///
/// Batching, whether the cache was installed with fusion on and the
/// [`sushi_tensor::KernelPolicy`] are speed knobs, never semantics: int8
/// accumulation per output element is independent of all three, so logits
/// are bit-identical across them (pinned by `tests/proptest_batch.rs` and
/// `tests/proptest_fusion.rs`).
///
/// # Errors
/// Returns an error when the batch is empty, an input shape does not match
/// the SuperNet, the cache was built for a different SubGraph, or a plan
/// step fails to execute.
pub fn forward_batch_cached(
    dpe: &DpeArray,
    net: &SuperNet,
    store: &WeightStore,
    subnet: &SubNet,
    cache: Option<&SubgraphCache>,
    arena: &mut Arena,
    inputs: &[Tensor<i8>],
) -> Result<Vec<FunctionalOutput>, TensorError> {
    let installed;
    let cache = match cache {
        Some(c) => c,
        None => {
            installed = SubgraphCache::build(net, store, subnet)?;
            &installed
        }
    };
    if !cache.matches(&subnet.graph) {
        return Err(TensorError::InvalidParam {
            what: "weight cache built for a different SubGraph",
        });
    }
    if inputs.is_empty() {
        return Err(TensorError::InvalidParam { what: "forward on an empty batch" });
    }
    let expect = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut data = Vec::with_capacity(expect.volume() * inputs.len());
    for input in inputs {
        if input.shape() != expect {
            return Err(TensorError::ShapeMismatch {
                what: "network input",
                lhs: input.shape(),
                rhs: expect,
            });
        }
        data.extend_from_slice(input.as_slice());
    }
    let stacked = Tensor::from_vec(Shape4::new(inputs.len(), 3, net.input_hw, net.input_hw), data)?;
    let logits_t = Executor { dpe, cache, arena }.run(&stacked)?;
    Ok(split_outputs(&logits_t))
}

/// Splits a `(B, classes, 1, 1)` logits tensor into per-item outputs.
fn split_outputs(logits_t: &Tensor<f32>) -> Vec<FunctionalOutput> {
    let shape = logits_t.shape();
    let per_item = shape.volume() / shape.n;
    logits_t
        .as_slice()
        .chunks_exact(per_item)
        .map(|logits| FunctionalOutput {
            logits: logits.to_vec(),
            prediction: argmax(logits).unwrap_or(0),
        })
        .collect()
}

/// Index of the maximum score (the last one on ties).
fn argmax(scores: &[f32]) -> Option<usize> {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}

/// The activation quantization every forward uses; quantize inputs with it.
#[must_use]
pub fn act_quant() -> QuantParams {
    ACT_Q
}

/// Executes the plan of one installed cache.
struct Executor<'a> {
    dpe: &'a DpeArray,
    cache: &'a SubgraphCache,
    arena: &'a mut Arena,
}

impl Executor<'_> {
    /// Applies conv layer `idx` to `x` (which must have the slice's input
    /// channels): conv, cached bias, requantize, then `act`. Touches only
    /// install-time state — sliced weights, bias and packed panels are read
    /// in place, and all scratch comes from the reused arena.
    fn conv_act(
        &mut self,
        idx: usize,
        x: &Tensor<i8>,
        act: Activation,
    ) -> Result<Tensor<i8>, TensorError> {
        let cl = self.cache.active(idx)?;
        let y = self.dpe.conv2d_i8_in(
            self.arena,
            x,
            ACT_Q,
            &cl.weights,
            cl.w_q,
            cl.packed.as_ref(),
            Some(&cl.bias),
            ACT_Q,
            &cl.params,
        )?;
        Ok(apply_activation(y, act))
    }

    /// Executes the cache's plan on a (possibly batched) input, returning
    /// the dequantized `(B, classes, 1, 1)` logits tensor: steps in order
    /// over a dense slot table, freeing each slot after its last read
    /// (`drop_after`). Fused conv steps run the k-pair `pmaddwd` kernel
    /// with the baked epilogue; plain conv steps run conv, bias,
    /// requantize, activation through the DPE array.
    fn run(&mut self, input: &Tensor<i8>) -> Result<Tensor<f32>, TensorError> {
        fn fetch(slots: &[Option<Tensor<i8>>], s: usize) -> Result<&Tensor<i8>, TensorError> {
            slots
                .get(s)
                .and_then(Option::as_ref)
                .ok_or(TensorError::InvalidParam { what: "plan read an empty slot" })
        }
        let cache = self.cache;
        let plan = &cache.plan;
        let mut slots: Vec<Option<Tensor<i8>>> = vec![None; plan.slots];
        slots[plan.input_slot] = Some(input.clone());
        for (i, step) in plan.steps.iter().enumerate() {
            let (dst, out) = match *step {
                Step::Conv { layer, act, src, dst, .. } => {
                    (dst, self.conv_act(layer, fetch(&slots, src)?, act)?)
                }
                Step::FusedConv { layer, src, dst, .. } => {
                    let cl = cache.active(layer)?;
                    let fl = cl.fused.as_ref().ok_or(TensorError::InvalidParam {
                        what: "fused step without k-pair panels",
                    })?;
                    let x = fetch(&slots, src)?;
                    let y = conv2d_i8_fused(
                        x,
                        ACT_Q,
                        &fl.packed,
                        &fl.epilogue,
                        &cl.params,
                        self.arena,
                    )?;
                    (dst, y)
                }
                Step::Act { act, src, dst } => {
                    (dst, apply_activation(fetch(&slots, src)?.clone(), act))
                }
                Step::Add { a, b, act, dst } => {
                    let sum = saturating_add_i8(fetch(&slots, a)?, fetch(&slots, b)?)?;
                    (dst, apply_activation(sum, act))
                }
                Step::SqueezeExcite { reduce, expand, src, dst } => {
                    let x = fetch(&slots, src)?;
                    (dst, self.squeeze_excite(reduce, expand, x)?)
                }
                Step::MaxPool { window, stride, padding, src, dst } => {
                    let p = PoolParams { window, stride, padding };
                    (dst, i8_max_pool(fetch(&slots, src)?, &p)?)
                }
                Step::GlobalAvgPool { src, dst } => {
                    let x = fetch(&slots, src)?;
                    (dst, quantize_tensor(&global_avg_pool(&dequantize_tensor(x, ACT_Q)), ACT_Q))
                }
            };
            slots[dst] = Some(out);
            for &s in &plan.drop_after[i] {
                slots[s] = None;
            }
        }
        let last = slots[plan.logits_slot]
            .take()
            .ok_or(TensorError::InvalidParam { what: "plan finished with empty logits slot" })?;
        Ok(dequantize_tensor(&last, ACT_Q))
    }

    /// SE module: pooled 1×1 reduce (ReLU) → 1×1 expand (h-sigmoid) →
    /// channel-wise rescale of `y`.
    fn squeeze_excite(
        &mut self,
        se_r: usize,
        se_e: usize,
        y: &Tensor<i8>,
    ) -> Result<Tensor<i8>, TensorError> {
        let pooled = quantize_tensor(&global_avg_pool(&dequantize_tensor(y, ACT_Q)), ACT_Q);
        let g = self.conv_act(se_r, &pooled, Activation::Relu)?;
        let g = self.conv_act(se_e, &g, Activation::None)?;
        // Channel-wise multiply in the dequantized domain, then requantize,
        // in place, a row at a time: `quantize_slice` is `quantize` per
        // element, bit for bit, in lanes. Gates are per (batch item,
        // channel): pooling and the SE convs all preserve the batch
        // dimension.
        let mut out = y.clone();
        let shape = out.shape();
        let mut scaled = [0f32; 128];
        for n in 0..shape.n {
            for c in 0..shape.c {
                let gv = Activation::HSigmoid.apply(ACT_Q.dequantize(g.get(n, c, 0, 0)));
                for h in 0..shape.h {
                    for part in out.row_mut(n, c, h).chunks_mut(scaled.len()) {
                        let scaled = &mut scaled[..part.len()];
                        for (s, &q) in scaled.iter_mut().zip(part.iter()) {
                            *s = ACT_Q.dequantize(q) * gv;
                        }
                        ACT_Q.quantize_slice(scaled, part)?;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Int8 activation: ReLU is exact on zero-point-0 data; the h-family applies
/// in the dequantized domain and requantizes. Its output depends only on the
/// `i8` input, so it maps the tensor in place through a 256-entry table of
/// exactly that dequantize → apply → quantize.
fn apply_activation(mut x: Tensor<i8>, act: Activation) -> Tensor<i8> {
    match act {
        Activation::None => {}
        Activation::Relu => x.as_mut_slice().iter_mut().for_each(|v| *v = (*v).max(0)),
        _ => {
            let lut: [i8; 256] =
                std::array::from_fn(|i| ACT_Q.quantize(act.apply(ACT_Q.dequantize(i as u8 as i8))));
            x.as_mut_slice().iter_mut().for_each(|v| *v = lut[usize::from(*v as u8)]);
        }
    }
    x
}

/// Saturating elementwise int8 add of equal-scale activations.
fn saturating_add_i8(a: &Tensor<i8>, b: &Tensor<i8>) -> Result<Tensor<i8>, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            what: "residual add",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x.saturating_add(y)).collect();
    Tensor::from_vec(a.shape(), data)
}

/// Max-pool on int8 data (monotone quantization makes this exact).
fn i8_max_pool(x: &Tensor<i8>, p: &PoolParams) -> Result<Tensor<i8>, TensorError> {
    let f = dequantize_tensor(x, ACT_Q);
    Ok(quantize_tensor(&max_pool(&f, p)?, ACT_Q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_tensor::DetRng;
    use sushi_wsnet::zoo;

    /// [`forward_cached`] without a cache, on a fresh arena.
    fn uncached(
        dpe: &DpeArray,
        net: &SuperNet,
        store: &WeightStore,
        subnet: &SubNet,
        input: &Tensor<i8>,
    ) -> Result<FunctionalOutput, TensorError> {
        forward_cached(dpe, net, store, subnet, None, &mut Arena::new(), input)
    }

    /// [`forward_batch_cached`] without a cache, on a fresh arena.
    fn uncached_batch(
        dpe: &DpeArray,
        net: &SuperNet,
        store: &WeightStore,
        subnet: &SubNet,
        inputs: &[Tensor<i8>],
    ) -> Result<Vec<FunctionalOutput>, TensorError> {
        forward_batch_cached(dpe, net, store, subnet, None, &mut Arena::new(), inputs)
    }

    fn rand_input(net: &SuperNet, seed: u64) -> Tensor<i8> {
        let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
        let mut rng = DetRng::new(seed);
        let f = Tensor::from_vec(
            shape,
            (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect(),
        )
        .unwrap();
        quantize_tensor(&f, ACT_Q)
    }

    #[test]
    fn toy_resnet_forward_produces_logits() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 11);
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let out = uncached(&DpeArray::new(4, 4), &net, &store, &sn, &rand_input(&net, 1)).unwrap();
        assert_eq!(out.logits.len(), net.head_channels[0]);
        assert!(out.prediction < out.logits.len());
    }

    #[test]
    fn toy_mobilenet_forward_produces_logits() {
        let net = zoo::toy_mobilenet_supernet();
        let store = WeightStore::synthesize(&net, 12);
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let out = uncached(&DpeArray::new(4, 4), &net, &store, &sn, &rand_input(&net, 2)).unwrap();
        assert_eq!(out.logits.len(), *net.head_channels.last().unwrap());
    }

    #[test]
    fn forward_is_deterministic() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 13);
        let sn = net.materialize("min", &net.min_config()).unwrap();
        let x = rand_input(&net, 3);
        let a = uncached(&DpeArray::new(2, 3), &net, &store, &sn, &x).unwrap();
        let b = uncached(&DpeArray::new(2, 3), &net, &store, &sn, &x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forward_independent_of_dpe_geometry() {
        let net = zoo::toy_mobilenet_supernet();
        let store = WeightStore::synthesize(&net, 14);
        let sn = net.materialize("min", &net.min_config()).unwrap();
        let x = rand_input(&net, 4);
        let a = uncached(&DpeArray::new(1, 1), &net, &store, &sn, &x).unwrap();
        let b = uncached(&DpeArray::new(8, 8), &net, &store, &sn, &x).unwrap();
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn forward_is_independent_of_kernel_policy() {
        use sushi_tensor::KernelPolicy;
        let net = zoo::toy_mobilenet_supernet();
        let store = WeightStore::synthesize(&net, 18);
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let x = rand_input(&net, 8);
        let base = DpeArray::new(4, 4);
        let naive =
            uncached(&base.with_policy(KernelPolicy::Naive), &net, &store, &sn, &x).unwrap();
        let gemm =
            uncached(&base.with_policy(KernelPolicy::Im2colGemm), &net, &store, &sn, &x).unwrap();
        let auto = uncached(&base, &net, &store, &sn, &x).unwrap();
        assert_eq!(naive, gemm, "kernel policy must not change logits");
        assert_eq!(naive, auto);
    }

    #[test]
    fn batched_forward_matches_unbatched() {
        for net in [zoo::toy_supernet(), zoo::toy_mobilenet_supernet()] {
            let store = WeightStore::synthesize(&net, 21);
            let sn = net.materialize("max", &net.max_config()).unwrap();
            let dpe = DpeArray::new(4, 4);
            let inputs: Vec<Tensor<i8>> = (0..3).map(|i| rand_input(&net, 30 + i)).collect();
            let batched = uncached_batch(&dpe, &net, &store, &sn, &inputs).unwrap();
            assert_eq!(batched.len(), 3);
            for (input, out) in inputs.iter().zip(&batched) {
                let single = uncached(&dpe, &net, &store, &sn, input).unwrap();
                assert_eq!(&single, out, "batched logits must equal unbatched ({})", net.name);
            }
        }
    }

    #[test]
    fn batched_forward_rejects_empty_and_bad_shapes() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 22);
        let sn = net.materialize("min", &net.min_config()).unwrap();
        let dpe = DpeArray::new(2, 2);
        assert!(uncached_batch(&dpe, &net, &store, &sn, &[]).is_err());
        let bad = Tensor::<i8>::zeros(Shape4::new(1, 3, 8, 8));
        assert!(uncached_batch(&dpe, &net, &store, &sn, &[rand_input(&net, 1), bad]).is_err());
    }

    #[test]
    fn different_subnets_generally_disagree() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 15);
        let small = net.materialize("min", &net.min_config()).unwrap();
        let big = net.materialize("max", &net.max_config()).unwrap();
        let x = rand_input(&net, 5);
        let a = uncached(&DpeArray::new(4, 4), &net, &store, &small, &x).unwrap();
        let b = uncached(&DpeArray::new(4, 4), &net, &store, &big, &x).unwrap();
        assert_ne!(a.logits, b.logits, "distinct SubNets should compute different functions");
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 16);
        let sn = net.materialize("min", &net.min_config()).unwrap();
        let bad = Tensor::<i8>::zeros(Shape4::new(1, 3, 8, 8));
        assert!(uncached(&DpeArray::new(2, 2), &net, &store, &sn, &bad).is_err());
    }

    #[test]
    fn weight_sharing_small_subnet_weights_affect_large_subnet() {
        // The prediction pathway genuinely shares weights: outputs of the
        // max SubNet on two stores differing ONLY outside the min SubNet's
        // slice must differ, while min SubNet outputs agree.
        let net = zoo::toy_supernet();
        let store_a = WeightStore::synthesize(&net, 17);
        let mut store_b = store_a.clone();
        // Perturb one weight beyond the min slice of layer 1.
        let min_sn = net.materialize("min", &net.min_config()).unwrap();
        let max_sn = net.materialize("max", &net.max_config()).unwrap();
        // Find a layer where max has more kernels than min.
        let (li, _) = net
            .layers
            .iter()
            .enumerate()
            .find(|(i, _)| {
                let a = min_sn.graph.slice(*i);
                let b = max_sn.graph.slice(*i);
                !a.is_empty() && b.kernels > a.kernels
            })
            .expect("some layer must grow");
        // Rebuild store_b with a different seed only for that layer by
        // tweaking the stored tensor directly.
        {
            let lw = store_b_layer_mut(&mut store_b, li);
            let k_beyond = min_sn.graph.slice(li).kernels; // first kernel not in min
            let shape = lw.shape();
            for c in 0..shape.c {
                for y in 0..shape.h {
                    for x in 0..shape.w {
                        let old = lw.get(k_beyond, c, y, x);
                        lw.set(k_beyond, c, y, x, old.wrapping_add(64));
                    }
                }
            }
        }
        let x = rand_input(&net, 6);
        let dpe = DpeArray::new(4, 4);
        let min_a = uncached(&dpe, &net, &store_a, &min_sn, &x).unwrap();
        let min_b = uncached(&dpe, &net, &store_b, &min_sn, &x).unwrap();
        assert_eq!(
            min_a.logits, min_b.logits,
            "perturbation outside min slice must not affect min SubNet"
        );
        let max_a = uncached(&dpe, &net, &store_a, &max_sn, &x).unwrap();
        let max_b = uncached(&dpe, &net, &store_b, &max_sn, &x).unwrap();
        assert_ne!(
            max_a.logits, max_b.logits,
            "perturbation inside max slice must affect max SubNet"
        );
    }

    /// Test helper: mutable access to a stored kernel tensor.
    fn store_b_layer_mut(store: &mut WeightStore, layer: usize) -> &mut Tensor<i8> {
        store.layer_mut_for_tests(layer)
    }

    #[test]
    fn argmax_finds_peak() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_breaks_ties_toward_last_max() {
        // max_by keeps the later element on ties.
        assert_eq!(argmax(&[1.0, 1.0]), Some(1));
    }

    /// A plan step naming a layer the cache does not hold is an error from
    /// the executor, with fusion on or off — never a panic.
    #[test]
    fn plan_step_on_a_missing_layer_is_an_error() {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, 19);
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let x = rand_input(&net, 9);
        for fusion in [false, true] {
            let mut cache = SubgraphCache::install(&net, &store, &sn, fusion).unwrap();
            let named = cache.plan.steps.iter().find_map(|s| match *s {
                Step::Conv { layer, .. } | Step::FusedConv { layer, .. } => Some(layer),
                _ => None,
            });
            cache.layers[named.expect("plan has a conv step")] = None;
            let err = forward_cached(
                &DpeArray::new(2, 2),
                &net,
                &store,
                &sn,
                Some(&cache),
                &mut Arena::new(),
                &x,
            )
            .unwrap_err();
            assert!(format!("{err:?}").contains("layer the cache lacks"), "{err:?}");
        }
    }
}

//! SubNet → IR translation: builds the typed `sushi-ir` op-graph whose
//! lowered plan drives the fused serving datapath.
//!
//! [`build_ir`] writes the network out layer by layer — stem, blocks, head,
//! with each activation and residual add where the per-layer oracle in
//! `crates/accel/tests/oracle` applies it. The fold pass only changes
//! *where* bias/requant/activation run (inside the conv epilogue), never
//! their arithmetic, which is what keeps every plan's logits bit-identical
//! to that oracle.
//!
//! Translation runs once per cache install; queries never see the graph.

use sushi_ir::{Graph, IrError, NodeId, Op, Plan};
use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::Conv2dParams;
use sushi_tensor::Shape4;

use crate::arch::{Family, SuperNet, NO_STAGE};
use crate::layer::{ConvKind, ConvLayerDesc, LayerRole, LayerSlice};
use crate::subnet::SubNet;

/// Conv hyper-parameters for one layer under one SubNet slice — the single
/// resolution rule, shared with the accelerator's cache install.
#[must_use]
pub fn layer_conv_params(layer: &ConvLayerDesc, slice: &LayerSlice) -> Conv2dParams {
    let groups = match layer.kind {
        ConvKind::Dense => 1,
        ConvKind::Depthwise => slice.kernels,
    };
    Conv2dParams::new(slice.kernel_size, slice.kernel_size)
        .with_stride(layer.stride)
        .with_padding(slice.kernel_size / 2)
        .with_groups(groups)
}

/// Builds the op-graph for one forward pass of `subnet` (batch 1).
///
/// The graph comes back *unnormalized*: every conv is followed by explicit
/// `Bias`/`Requant`/`Act` nodes. Run [`sushi_ir::normalize`] and
/// [`Plan::lower`] (or just [`build_plan`]) to reach the executable form.
///
/// # Errors
/// Returns an error when the built graph fails validation — inconsistent
/// zoo layer definitions, surfaced at install time.
pub fn build_ir(net: &SuperNet, subnet: &SubNet) -> Result<Graph, IrError> {
    let mut b =
        Builder { net, subnet, g: Graph::new(Shape4::new(1, 3, net.input_hw, net.input_hw)) };
    let layers = &net.layers;
    let mut idx = 0usize;
    // Stem.
    let mut x = b.conv_chain(idx, b.g.input(), Activation::Relu);
    idx += 1;
    if net.family == Family::OfaResNet50 {
        x = b.g.push(Op::MaxPool { window: 3, stride: 2, padding: 1 }, &[x]);
    }
    // Stages.
    while idx < layers.len() && layers[idx].stage != NO_STAGE {
        let (next_idx, y) = b.build_block(idx, x)?;
        if let Some(y) = y {
            x = y;
        }
        idx = next_idx;
    }
    // Head: global pool then 1×1 convs on pooled features.
    let mut h = b.g.push(Op::GlobalAvgPool, &[x]);
    while idx < layers.len() {
        let act = if idx + 1 < layers.len() { Activation::Relu } else { Activation::None };
        h = b.conv_chain(idx, h, act);
        idx += 1;
    }
    let o = b.g.push(Op::Output, &[h]);
    b.g.set_output(o);
    b.g.validate()?;
    Ok(b.g)
}

/// [`build_ir`], normalized and lowered to an executable [`Plan`] — the
/// one-call install-time entry point.
///
/// `fusion` alone picks the datapath: [`sushi_ir::normalize`] annotates
/// GEMM-bound convs with the k-pair layout, which lowers them to
/// [`sushi_ir::Step::FusedConv`]; with fusion off
/// [`sushi_ir::normalize_unfused`] skips that annotation, so every conv
/// lowers to the plain [`sushi_ir::Step::Conv`] (conv, bias, requantize,
/// activation). Both plans have the same steps in the same slots and
/// produce the same logits.
///
/// # Errors
/// Returns an error when graph construction, the fold pass, or lowering
/// fails.
pub fn build_plan(net: &SuperNet, subnet: &SubNet, fusion: bool) -> Result<Plan, IrError> {
    let mut g = build_ir(net, subnet)?;
    if fusion {
        sushi_ir::normalize(&mut g)?;
    } else {
        sushi_ir::normalize_unfused(&mut g)?;
    }
    Plan::lower(&g)
}

struct Builder<'a> {
    net: &'a SuperNet,
    subnet: &'a SubNet,
    g: Graph,
}

impl Builder<'_> {
    fn slice(&self, idx: usize) -> LayerSlice {
        self.subnet.graph.slice(idx)
    }

    /// Pushes the per-layer runtime sequence for conv layer `idx`:
    /// `Conv → Bias → Requant` plus an `Act` when `act` is not `None`.
    fn conv_chain(&mut self, idx: usize, x: NodeId, act: Activation) -> NodeId {
        let layer = &self.net.layers[idx];
        let slice = self.slice(idx);
        let c = self.g.push(
            Op::Conv {
                layer: idx,
                params: layer_conv_params(layer, &slice),
                out_channels: slice.kernels,
                epilogue: sushi_ir::EpilogueSpec::default(),
            },
            &[x],
        );
        let bs = self.g.push(Op::Bias { layer: idx, channels: slice.kernels }, &[c]);
        let r = self.g.push(Op::Requant, &[bs]);
        if act == Activation::None {
            r
        } else {
            self.g.push(Op::Act(act), &[r])
        }
    }

    /// Inferred output shape of `id` (install-time only; O(graph)).
    fn shape_of(&self, id: NodeId) -> Result<Shape4, IrError> {
        let facts = self.g.infer()?;
        facts[id.0]
            .map(|f| f.shape)
            .ok_or(IrError::Validation { node: id.0, what: "shape of a dead node" })
    }

    /// Translates one block starting at layer `idx`; returns the index after
    /// the block and the block's output node (`None` when inactive).
    fn build_block(&mut self, idx: usize, x: NodeId) -> Result<(usize, Option<NodeId>), IrError> {
        let layers = &self.net.layers;
        let stage = layers[idx].stage;
        let block = layers[idx].block;
        let mut end = idx;
        while end < layers.len() && layers[end].stage == stage && layers[end].block == block {
            end += 1;
        }
        if self.slice(idx).is_empty() {
            return Ok((end, None));
        }
        let find =
            |role: LayerRole| -> Option<usize> { (idx..end).find(|&i| layers[i].role == role) };
        match self.net.family {
            Family::OfaResNet50 => {
                let c1 = find(LayerRole::Expand).expect("bottleneck conv1");
                let c2 = find(LayerRole::Spatial).expect("bottleneck conv2");
                let c3 = find(LayerRole::Project).expect("bottleneck conv3");
                let y = self.conv_chain(c1, x, Activation::Relu);
                let y = self.conv_chain(c2, y, Activation::Relu);
                let y = self.conv_chain(c3, y, Activation::None);
                let identity = if let Some(ds) = find(LayerRole::Downsample) {
                    Some(self.conv_chain(ds, x, Activation::None))
                } else if self.shape_of(x)? == self.shape_of(y)? {
                    Some(x)
                } else {
                    None
                };
                let summed = match identity {
                    Some(id) => self.g.push(Op::Add { act: Activation::None }, &[y, id]),
                    None => y,
                };
                let out = self.g.push(Op::Act(Activation::Relu), &[summed]);
                Ok((end, Some(out)))
            }
            Family::OfaMobileNetV3 => {
                let ex = find(LayerRole::Expand).expect("mbconv expand");
                let dw = find(LayerRole::Spatial).expect("mbconv depthwise");
                let pj = find(LayerRole::Project).expect("mbconv project");
                let y = self.conv_chain(ex, x, Activation::HSwish);
                let mut y = self.conv_chain(dw, y, Activation::HSwish);
                if let (Some(se_r), Some(se_e)) =
                    (find(LayerRole::SeReduce), find(LayerRole::SeExpand))
                {
                    y = self.g.push(Op::SqueezeExcite { reduce: se_r, expand: se_e }, &[y]);
                }
                let y = self.conv_chain(pj, y, Activation::None);
                let out = if self.shape_of(x)? == self.shape_of(y)? {
                    self.g.push(Op::Add { act: Activation::None }, &[y, x])
                } else {
                    y
                };
                Ok((end, Some(out)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use sushi_ir::Step;

    fn nets() -> Vec<SuperNet> {
        vec![
            zoo::toy_supernet(),
            zoo::toy_mobilenet_supernet(),
            zoo::resnet50_supernet(),
            zoo::mobilenet_v3_supernet(),
        ]
    }

    #[test]
    fn every_zoo_subnet_builds_validates_and_lowers() {
        for net in nets() {
            for (label, cfg) in [("max", net.max_config()), ("min", net.min_config())] {
                let sn = net.materialize(label, &cfg).unwrap();
                let g = build_ir(&net, &sn)
                    .unwrap_or_else(|e| panic!("{}/{label}: build failed: {e}", net.name));
                let plan = build_plan(&net, &sn, true)
                    .unwrap_or_else(|e| panic!("{}/{label}: lower failed: {e}", net.name));
                assert!(!plan.steps.is_empty(), "{}/{label}: empty plan", net.name);
                assert!(g.live_count() > plan.steps.len());
            }
        }
    }

    #[test]
    fn full_resnet_max_lowers_mostly_fused() {
        let net = zoo::resnet50_supernet();
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let plan = build_plan(&net, &sn, true).unwrap();
        let convs = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Conv { .. } | Step::FusedConv { .. }))
            .count();
        // The big dense bottleneck convs all clear the GEMM threshold.
        assert!(
            plan.fused_conv_count() * 2 > convs,
            "expected most of {convs} convs fused, got {}",
            plan.fused_conv_count()
        );
        // 1×1 projections dominate ResNet50; the im2col skip must be live.
        assert!(plan.steps.iter().any(|s| matches!(s, Step::FusedConv { im2col_skip: true, .. })));
    }

    #[test]
    fn depthwise_and_se_stay_on_the_direct_path() {
        let net = zoo::mobilenet_v3_supernet();
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let g = build_ir(&net, &sn).unwrap();
        let mut norm = g.clone();
        sushi_ir::normalize(&mut norm).unwrap();
        let plan = Plan::lower(&norm).unwrap();
        assert!(plan.steps.iter().any(|s| matches!(s, Step::SqueezeExcite { .. })));
        // Depthwise spatial convs keep the direct path (groups > 1).
        assert!(plan.steps.iter().any(|s| matches!(s, Step::Conv { .. })));
        assert!(plan.fused_conv_count() > 0);
    }

    /// Fusion off is the same plan minus the layout annotation: no fused
    /// step, and every other step identical slot for slot.
    #[test]
    fn fusion_off_lowers_every_conv_to_the_plain_step() {
        for net in nets() {
            let sn = net.materialize("max", &net.max_config()).unwrap();
            let fused = build_plan(&net, &sn, true).unwrap();
            let plain = build_plan(&net, &sn, false).unwrap();
            assert_eq!(plain.fused_conv_count(), 0, "{}", net.name);
            assert_eq!(plain.steps.len(), fused.steps.len(), "{}", net.name);
            assert_eq!(plain.drop_after, fused.drop_after, "{}", net.name);
            for (p, f) in plain.steps.iter().zip(&fused.steps) {
                match (p, f) {
                    (
                        Step::Conv { layer, bias, act, src, dst },
                        Step::FusedConv { layer: l, bias: b, act: a, src: s, dst: d, .. },
                    ) => assert_eq!((layer, bias, act, src, dst), (l, b, a, s, d)),
                    _ => assert_eq!(p, f, "{}", net.name),
                }
            }
        }
    }

    /// One sweep reaches the normal form: normalizing an already-normalized
    /// graph applies nothing and leaves it equal, with fusion on or off.
    #[test]
    fn normalizing_twice_applies_nothing() {
        for net in nets() {
            for (label, cfg) in [("max", net.max_config()), ("min", net.min_config())] {
                let sn = net.materialize(label, &cfg).unwrap();
                for pass in [sushi_ir::normalize, sushi_ir::normalize_unfused] {
                    let mut g = build_ir(&net, &sn).unwrap();
                    assert!(!pass(&mut g).unwrap().applied.is_empty());
                    let once = g.clone();
                    let log = pass(&mut g).unwrap();
                    assert!(log.applied.is_empty(), "{}/{label}: {:?}", net.name, log.applied);
                    assert_eq!(g, once, "{}/{label}", net.name);
                }
            }
        }
    }

    /// Install-time determinism: building + normalizing + lowering the same
    /// SubNet twice yields identical plans (the CI `ir-smoke` contract).
    #[test]
    fn lowering_is_deterministic() {
        for net in nets() {
            let sn = net.materialize("max", &net.max_config()).unwrap();
            let a = build_plan(&net, &sn, true).unwrap();
            let b = build_plan(&net, &sn, true).unwrap();
            assert_eq!(a, b, "{}: nondeterministic lowering", net.name);
        }
    }
}

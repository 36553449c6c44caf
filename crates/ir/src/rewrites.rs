//! The standard rewrite catalog.
//!
//! Six rewrites normalize a freshly built SubNet graph into the fused
//! serving form:
//!
//! 1. [`FuseBias`] — `Conv → Bias` becomes a conv with `epilogue.bias`.
//! 2. [`FuseRequant`] — `Conv → Requant` becomes a conv that requantizes at
//!    writeback (its output dtype flips to i8).
//! 3. [`FoldBatchNorm`] — `Conv(requant) → BatchNorm` folds the per-channel
//!    affine into the conv's requantization ([`BnFold`]). The fold skips the
//!    intermediate i8 rounding the two-stage form would perform, so it is
//!    *more* accurate than running the ops separately (within one output
//!    quantum of it — pinned by a test below), not bit-equal.
//! 4. [`FuseActivation`] — `Conv(requant) → Act` and `Add → Act` absorb the
//!    activation into the producer's epilogue.
//! 5. [`Dce`] — tombstones live non-output nodes nothing consumes.
//! 6. [`AnnotateLayout`] — marks dense convs whose `Auto` kernel policy
//!    resolves to the GEMM backend with [`PackLayout::KPair`], selecting the
//!    fused conv at lowering, and flags 1×1/stride-1/unpadded convs to skip
//!    im2col.
//!
//! [`run_to_fixpoint`] applies them in deterministic order; the confluence
//! test below pins that any *presentation order* of this catalog reaches the
//! same normal form.

use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::gemm::{ConvBackend, KernelPolicy};
use sushi_tensor::PackLayout;

use crate::error::IrError;
use crate::graph::{BnFold, Graph, NodeId, Op};
use crate::rewrite::{run_to_fixpoint, Patch, Rewrite, RewriteLog};

/// Returns `id`'s producing conv when `id` is that conv's *sole* live
/// consumer — the precondition for folding anything into the conv's
/// epilogue (another consumer would observe the pre-fold value).
fn sole_conv_producer(g: &Graph, id: NodeId) -> Option<NodeId> {
    let node = g.node(id);
    let src = *node.inputs.first()?;
    match g.node(src).op {
        Op::Conv { .. } if g.consumers(src) == [id] => Some(src),
        _ => None,
    }
}

/// Folds a `Bias` node into its producing conv's epilogue.
pub struct FuseBias;

impl Rewrite for FuseBias {
    fn name(&self) -> &'static str {
        "fuse-bias"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        let Op::Bias { layer: bias_layer, .. } = g.node(id).op else {
            return None;
        };
        let conv = sole_conv_producer(g, id)?;
        let Op::Conv { layer, ref params, out_channels, ref epilogue } = g.node(conv).op else {
            return None;
        };
        // The bias must belong to the same SuperNet layer as the weights,
        // and nothing may already be fused past the accumulator stage.
        if layer != bias_layer || epilogue.bias || epilogue.requant {
            return None;
        }
        let mut spec = epilogue.clone();
        spec.bias = true;
        let mut p = Patch::new(self.name());
        p.set_op.push((conv, Op::Conv { layer, params: *params, out_channels, epilogue: spec }));
        p.redirect.push((id, conv));
        p.delete.push(id);
        Some(p)
    }
}

/// Folds a `Requant` node into its producing conv's writeback.
pub struct FuseRequant;

impl Rewrite for FuseRequant {
    fn name(&self) -> &'static str {
        "fuse-requant"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        if !matches!(g.node(id).op, Op::Requant) {
            return None;
        }
        let conv = sole_conv_producer(g, id)?;
        let Op::Conv { layer, ref params, out_channels, ref epilogue } = g.node(conv).op else {
            return None;
        };
        if epilogue.requant {
            return None;
        }
        let mut spec = epilogue.clone();
        spec.requant = true;
        let mut p = Patch::new(self.name());
        p.set_op.push((conv, Op::Conv { layer, params: *params, out_channels, epilogue: spec }));
        p.redirect.push((id, conv));
        p.delete.push(id);
        Some(p)
    }
}

/// Folds a `BatchNorm` node into its producing conv's per-channel
/// requantization.
pub struct FoldBatchNorm;

impl Rewrite for FoldBatchNorm {
    fn name(&self) -> &'static str {
        "fold-batch-norm"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        let Op::BatchNorm { ref scale, ref offset } = g.node(id).op else {
            return None;
        };
        let (scale, offset) = (scale.clone(), offset.clone());
        let conv = sole_conv_producer(g, id)?;
        let Op::Conv { layer, ref params, out_channels, ref epilogue } = g.node(conv).op else {
            return None;
        };
        // Only fold into a requantizing conv that has no activation fused
        // yet: the epilogue applies activation *after* the per-channel
        // rescale, so an already-fused activation would end up on the wrong
        // side of the batch-norm.
        if !epilogue.requant || epilogue.bn.is_some() || epilogue.act != Activation::None {
            return None;
        }
        let mut spec = epilogue.clone();
        spec.bn = Some(BnFold { scale, offset });
        let mut p = Patch::new(self.name());
        p.set_op.push((conv, Op::Conv { layer, params: *params, out_channels, epilogue: spec }));
        p.redirect.push((id, conv));
        p.delete.push(id);
        Some(p)
    }
}

/// Absorbs an `Act` node into its producer: a requantizing conv's epilogue,
/// or a residual `Add`'s fused post-activation.
pub struct FuseActivation;

impl Rewrite for FuseActivation {
    fn name(&self) -> &'static str {
        "fuse-activation"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        let Op::Act(act) = g.node(id).op else {
            return None;
        };
        let src = *g.node(id).inputs.first()?;
        if g.consumers(src) != [id] {
            return None;
        }
        let mut p = Patch::new(self.name());
        match g.node(src).op {
            Op::Conv { layer, ref params, out_channels, ref epilogue }
                if epilogue.requant && epilogue.act == Activation::None =>
            {
                let mut spec = epilogue.clone();
                spec.act = act;
                p.set_op
                    .push((src, Op::Conv { layer, params: *params, out_channels, epilogue: spec }));
            }
            Op::Add { act: Activation::None } => {
                p.set_op.push((src, Op::Add { act }));
            }
            _ => return None,
        }
        p.redirect.push((id, src));
        p.delete.push(id);
        Some(p)
    }
}

/// Dead-node elimination: tombstones live nodes (other than the input and
/// the declared output) that no live node consumes.
pub struct Dce;

impl Rewrite for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        if matches!(g.node(id).op, Op::Input) || g.output() == Some(id) {
            return None;
        }
        if !g.consumers(id).is_empty() {
            return None;
        }
        let mut p = Patch::new(self.name());
        p.delete.push(id);
        Some(p)
    }
}

/// Annotates dense, requantizing convs whose `Auto` kernel policy resolves
/// to the GEMM backend with the k-pair pack layout (the fused `pmaddwd`
/// datapath), and flags the 1×1/stride-1/unpadded case to skip im2col.
///
/// The MAC count is computed for batch 1, so the annotation depends only on
/// the SubNet, never on the serving batch size.
pub struct AnnotateLayout;

impl Rewrite for AnnotateLayout {
    fn name(&self) -> &'static str {
        "annotate-layout"
    }

    fn match_at(&self, g: &Graph, id: NodeId) -> Option<Patch> {
        let Op::Conv { layer, ref params, out_channels, ref epilogue } = g.node(id).op else {
            return None;
        };
        if !epilogue.requant || epilogue.layout != PackLayout::Panel || params.groups != 1 {
            return None;
        }
        let facts = g.infer().ok()?;
        let x = facts[g.node(id).inputs.first()?.0]?;
        let y = facts[id.0]?;
        let macs =
            out_channels * x.shape.c * params.kernel_h * params.kernel_w * y.shape.h * y.shape.w;
        if KernelPolicy::Auto.resolve(macs, false) != ConvBackend::Im2colGemm {
            return None;
        }
        let mut spec = epilogue.clone();
        spec.layout = PackLayout::KPair;
        spec.im2col_skip = params.kernel_h == 1
            && params.kernel_w == 1
            && params.stride == 1
            && params.padding == 0;
        let mut p = Patch::new(self.name());
        p.set_op.push((id, Op::Conv { layer, params: *params, out_channels, epilogue: spec }));
        Some(p)
    }
}

/// The standard catalog, in canonical application order.
#[must_use]
pub fn standard_rewrites() -> Vec<&'static dyn Rewrite> {
    vec![&FuseBias, &FuseRequant, &FoldBatchNorm, &FuseActivation, &Dce, &AnnotateLayout]
}

/// Normalizes `g` with the standard catalog: runs [`standard_rewrites`] to
/// fixpoint.
///
/// # Errors
/// Propagates [`run_to_fixpoint`] errors (validation breakage or a missing
/// fixpoint — both rewrite bugs, surfaced at install time).
pub fn normalize(g: &mut Graph) -> Result<RewriteLog, IrError> {
    run_to_fixpoint(g, &standard_rewrites())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EpilogueSpec;
    use sushi_tensor::ops::conv::Conv2dParams;
    use sushi_tensor::Shape4;

    fn conv(layer: usize, k: usize, stride: usize, out_channels: usize) -> Op {
        Op::Conv {
            layer,
            params: Conv2dParams::new(k, k).with_stride(stride).with_padding(k / 2),
            out_channels,
            epilogue: EpilogueSpec::default(),
        }
    }

    /// Builds `Conv → Bias → Requant → [BatchNorm] → Act → Output`.
    fn chain(with_bn: bool) -> Graph {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(3, 3, 1, 16), &[g.input()]);
        let b = g.push(Op::Bias { layer: 3, channels: 16 }, &[c]);
        let r = g.push(Op::Requant, &[b]);
        let pre_act = if with_bn {
            g.push(Op::BatchNorm { scale: vec![1.25; 16], offset: vec![-0.5; 16] }, &[r])
        } else {
            r
        };
        let a = g.push(Op::Act(Activation::Relu), &[pre_act]);
        let o = g.push(Op::Output, &[a]);
        g.set_output(o);
        g
    }

    fn the_conv(g: &Graph) -> &EpilogueSpec {
        for id in g.live_ids() {
            if let Op::Conv { epilogue, .. } = &g.node(id).op {
                return epilogue;
            }
        }
        panic!("no live conv");
    }

    #[test]
    fn chain_normalizes_to_single_fused_conv() {
        let mut g = chain(false);
        let log = normalize(&mut g).unwrap();
        g.validate().unwrap();
        // Conv + Input + Output survive; Bias/Requant/Act folded away.
        assert_eq!(g.live_count(), 3);
        let spec = the_conv(&g);
        assert!(spec.bias && spec.requant);
        assert_eq!(spec.act, Activation::Relu);
        // 16·8·3·3·16·16 = 294912 MACs ≫ threshold → k-pair layout.
        assert_eq!(spec.layout, PackLayout::KPair);
        assert!(!spec.im2col_skip);
        assert_eq!(
            log.applied,
            vec!["fuse-bias", "fuse-requant", "fuse-activation", "annotate-layout"]
        );
    }

    #[test]
    fn batch_norm_folds_into_per_channel_requant() {
        let mut g = chain(true);
        normalize(&mut g).unwrap();
        assert_eq!(g.live_count(), 3);
        let spec = the_conv(&g);
        let bn = spec.bn.as_ref().expect("bn folded");
        assert_eq!(bn.scale, vec![1.25; 16]);
        assert_eq!(bn.offset, vec![-0.5; 16]);
        assert_eq!(spec.act, Activation::Relu);
    }

    #[test]
    fn tiny_and_grouped_convs_keep_the_panel_layout() {
        // 4·8·1·1·4·4 = 512 MACs < threshold → stays Panel, direct loops.
        let mut g = Graph::new(Shape4::new(1, 8, 4, 4));
        let c = g.push(
            Op::Conv {
                layer: 0,
                params: Conv2dParams::new(1, 1),
                out_channels: 4,
                epilogue: EpilogueSpec::default(),
            },
            &[g.input()],
        );
        let r = g.push(Op::Requant, &[c]);
        let o = g.push(Op::Output, &[r]);
        g.set_output(o);
        normalize(&mut g).unwrap();
        assert_eq!(the_conv(&g).layout, PackLayout::Panel);

        // Depthwise (groups == channels) is never annotated.
        let mut g = Graph::new(Shape4::new(1, 32, 32, 32));
        let c = g.push(
            Op::Conv {
                layer: 0,
                params: Conv2dParams::new(3, 3).with_padding(1).with_groups(32),
                out_channels: 32,
                epilogue: EpilogueSpec::default(),
            },
            &[g.input()],
        );
        let r = g.push(Op::Requant, &[c]);
        let o = g.push(Op::Output, &[r]);
        g.set_output(o);
        normalize(&mut g).unwrap();
        assert_eq!(the_conv(&g).layout, PackLayout::Panel);
    }

    #[test]
    fn big_1x1_conv_gets_im2col_skip() {
        let mut g = Graph::new(Shape4::new(1, 64, 14, 14));
        let c = g.push(
            Op::Conv {
                layer: 0,
                params: Conv2dParams::new(1, 1),
                out_channels: 64,
                epilogue: EpilogueSpec::default(),
            },
            &[g.input()],
        );
        let r = g.push(Op::Requant, &[c]);
        let o = g.push(Op::Output, &[r]);
        g.set_output(o);
        normalize(&mut g).unwrap();
        let spec = the_conv(&g);
        assert_eq!(spec.layout, PackLayout::KPair);
        assert!(spec.im2col_skip);
    }

    #[test]
    fn dce_removes_orphan_chains() {
        let mut g = chain(false);
        // An orphan conv chain nothing consumes.
        let oc = g.push(conv(9, 1, 1, 4), &[g.input()]);
        let or = g.push(Op::Requant, &[oc]);
        let live_before = g.live_count();
        let log = normalize(&mut g).unwrap();
        // The chain may partially fuse before DCE reaches it; both nodes
        // must be gone either way.
        assert!(g.node(oc).dead && g.node(or).dead);
        assert!(log.applied.contains(&"dce"));
        assert!(g.live_count() < live_before);
        g.validate().unwrap();
    }

    /// A residual where the first conv's *requantized output* has two
    /// consumers: the requant still fuses (the fold only needs the conv's
    /// accumulator to be single-consumer), both consumers then read the
    /// conv, and the `Add` absorbs its post-activation.
    #[test]
    fn residual_fuses_through_and_add_absorbs_act() {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c1 = g.push(conv(0, 3, 1, 8), &[g.input()]);
        let r1 = g.push(Op::Requant, &[c1]);
        let c2 = g.push(conv(1, 3, 1, 8), &[r1]);
        let r2 = g.push(Op::Requant, &[c2]);
        // Residual: r1 feeds both the second conv and the add.
        let s = g.push(Op::Add { act: Activation::None }, &[r2, r1]);
        let a = g.push(Op::Act(Activation::Relu), &[s]);
        let o = g.push(Op::Output, &[a]);
        g.set_output(o);
        normalize(&mut g).unwrap();
        g.validate().unwrap();
        assert!(g.node(r1).dead);
        let Op::Conv { epilogue, .. } = &g.node(c1).op else { panic!("conv") };
        // Requant fused; the activation belongs to the add, not the conv.
        assert!(epilogue.requant);
        assert_eq!(epilogue.act, Activation::None);
        assert_eq!(g.consumers(c1).len(), 2);
        let add =
            g.live_ids().find(|&id| matches!(g.node(id).op, Op::Add { .. })).expect("add survives");
        assert!(matches!(g.node(add).op, Op::Add { act: Activation::Relu }));
        assert!(g.node(a).dead);
    }

    /// A conv whose raw accumulators feed two requants keeps both standalone
    /// — folding either would change what the other observes.
    #[test]
    fn shared_accumulator_blocks_requant_fusion() {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(0, 3, 1, 8), &[g.input()]);
        let r1 = g.push(Op::Requant, &[c]);
        let r2 = g.push(Op::Requant, &[c]);
        let s = g.push(Op::Add { act: Activation::None }, &[r1, r2]);
        let o = g.push(Op::Output, &[s]);
        g.set_output(o);
        normalize(&mut g).unwrap();
        g.validate().unwrap();
        assert!(!g.node(r1).dead && !g.node(r2).dead);
        let Op::Conv { epilogue, .. } = &g.node(c).op else { panic!("conv") };
        assert!(!epilogue.requant);
    }

    /// Confluence: every presentation order of the catalog reaches the same
    /// normal form (the engine's determinism makes each order reproducible;
    /// this pins that the *result* doesn't depend on the order at all).
    #[test]
    fn catalog_is_confluent_under_reordering() {
        let reference = {
            let mut g = chain(true);
            normalize(&mut g).unwrap();
            g
        };
        let catalog = standard_rewrites();
        let n = catalog.len();
        // All rotations plus a few hand-picked adversarial orders.
        let mut orders: Vec<Vec<usize>> =
            (0..n).map(|r| (0..n).map(|i| (i + r) % n).collect()).collect();
        orders.push(vec![5, 4, 3, 2, 1, 0]); // full reversal
        orders.push(vec![3, 1, 5, 0, 2, 4]); // act/requant before bias
        for order in orders {
            let permuted: Vec<&dyn Rewrite> = order.iter().map(|&i| catalog[i]).collect();
            let mut g = chain(true);
            run_to_fixpoint(&mut g, &permuted).unwrap();
            assert_eq!(g, reference, "order {order:?} reached a different normal form");
        }
    }
}

//! The fold pass that normalizes a freshly built SubNet graph into the
//! fused serving form, in one forward sweep over the nodes.
//!
//! Each fold moves a node into the epilogue of its producer when the node is
//! that producer's *sole* consumer (another consumer would observe the
//! pre-fold value), redirects the node's consumers to the producer and
//! tombstones the node:
//!
//! - `fuse-bias`: `Conv → Bias` of the same layer, before requantization;
//! - `fuse-requant`: `Conv → Requant` (the conv's output dtype flips to i8);
//! - `fuse-activation`: `Conv(requant) → Act` and `Add → Act`.
//!
//! A node's producers precede it, so by the time the sweep reaches an `Act`
//! the `Requant` before it has already been folded: one sweep reaches the
//! normal form, and running the pass again folds nothing.
//!
//! With fusion on, an `annotate-layout` step then marks each dense
//! requantizing conv whose `Auto` kernel policy resolves to im2col-GEMM at
//! batch 1 with [`PackLayout::KPair`], selecting the fused conv at lowering,
//! and flags the 1×1/stride-1/unpadded case to skip im2col.

use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::gemm::{ConvBackend, KernelPolicy};
use sushi_tensor::PackLayout;

use crate::error::IrError;
use crate::graph::{Graph, NodeId, Op};

/// Record of the folds and annotations one pass applied, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteLog {
    /// Rewrite names, one per applied fold or annotation.
    pub applied: Vec<&'static str>,
}

/// Normalizes `g` with fusion on: folds every bias, requantization and
/// activation into its producer, then annotates the GEMM-bound convs with
/// the k-pair layout the fused conv reads.
///
/// # Errors
/// Returns [`IrError::Validation`] when the graph fails validation.
pub fn normalize(g: &mut Graph) -> Result<RewriteLog, IrError> {
    fold(g, true)
}

/// [`normalize`] with fusion off: the same folds, no layout annotation, so
/// every conv lowers to the unfused `Step::Conv`.
///
/// # Errors
/// As [`normalize`].
pub fn normalize_unfused(g: &mut Graph) -> Result<RewriteLog, IrError> {
    fold(g, false)
}

fn fold(g: &mut Graph, layout: bool) -> Result<RewriteLog, IrError> {
    let mut log = RewriteLog::default();
    // Live input edges per node, and the node each node's consumers read
    // (itself, until the sweep folds it into its producer).
    let mut uses = vec![0usize; g.len()];
    for id in g.live_ids() {
        for input in &g.node(id).inputs {
            uses[input.0] += 1;
        }
    }
    let mut alias: Vec<NodeId> = (0..g.len()).map(NodeId).collect();
    for idx in 0..g.len() {
        let node = g.node_mut(NodeId(idx));
        if node.dead {
            continue;
        }
        for input in &mut node.inputs {
            *input = alias[input.0];
        }
        let (op, Some(&src)) = (node.op, node.inputs.first()) else { continue };
        if uses[src.0] != 1 {
            continue;
        }
        let applied = match (op, &mut g.node_mut(src).op) {
            (Op::Bias { layer: bias_layer, .. }, Op::Conv { layer, epilogue: e, .. })
                if bias_layer == *layer && !e.bias && !e.requant =>
            {
                e.bias = true;
                "fuse-bias"
            }
            (Op::Requant, Op::Conv { epilogue: e, .. }) if !e.requant => {
                e.requant = true;
                "fuse-requant"
            }
            (Op::Act(act), Op::Conv { epilogue: e, .. })
                if e.requant && e.act == Activation::None =>
            {
                e.act = act;
                "fuse-activation"
            }
            (Op::Act(act), Op::Add { act: post @ Activation::None }) => {
                *post = act;
                "fuse-activation"
            }
            _ => continue,
        };
        g.node_mut(NodeId(idx)).dead = true;
        alias[idx] = src;
        uses[src.0] = uses[idx];
        log.applied.push(applied);
    }
    if let Some(out) = g.output() {
        g.set_output(alias[out.0]);
    }
    let facts = g.infer()?;
    if !layout {
        return Ok(log);
    }
    for (idx, fact) in facts.iter().enumerate() {
        let node = g.node_mut(NodeId(idx));
        let Op::Conv { params: p, out_channels, ref mut epilogue, .. } = node.op else { continue };
        // Dead slots have no fact.
        let (Some(y), Some(x)) = (*fact, facts[node.inputs[0].0]) else { continue };
        if !epilogue.requant || epilogue.layout != PackLayout::Panel || p.groups != 1 {
            continue;
        }
        let macs = out_channels * x.shape.c * p.kernel_h * p.kernel_w * y.shape.h * y.shape.w;
        if KernelPolicy::Auto.resolve(macs, false) != ConvBackend::Im2colGemm {
            continue;
        }
        epilogue.layout = PackLayout::KPair;
        epilogue.im2col_skip =
            p.kernel_h == 1 && p.kernel_w == 1 && p.stride == 1 && p.padding == 0;
        log.applied.push("annotate-layout");
    }
    Ok(log)
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

    /// Builds `Conv → Bias → Requant → Act → Output`.
    fn chain() -> Graph {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(3, 3, 1, 16), &[g.input()]);
        let b = g.push(Op::Bias { layer: 3, channels: 16 }, &[c]);
        let r = g.push(Op::Requant, &[b]);
        let a = g.push(Op::Act(Activation::Relu), &[r]);
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
        let mut g = chain();
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
}

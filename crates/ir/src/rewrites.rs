//! The pass that picks each conv's datapath, in one forward sweep over the
//! nodes.
//!
//! The graph arrives in normal form: every conv's bias, requantization and
//! activation already sit in its epilogue. The one decision left is the
//! `annotate-layout` step: it marks each dense conv whose `Auto` kernel
//! policy resolves to im2col-GEMM at batch 1 with [`PackLayout::KPair`],
//! selecting the fused conv at lowering, and flags the
//! 1×1/stride-1/unpadded case to skip im2col. An annotated conv is not
//! annotated again, so running the pass twice applies nothing.

use sushi_tensor::ops::gemm::{ConvBackend, KernelPolicy};
use sushi_tensor::PackLayout;

use crate::error::IrError;
use crate::graph::{Graph, NodeId, Op};

/// Record of the annotations one pass applied, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteLog {
    /// Rewrite names, one per applied annotation.
    pub applied: Vec<&'static str>,
}

/// Annotates the GEMM-bound convs of `g` with the k-pair layout the fused
/// conv reads. Without this pass (fusion off) every conv lowers to the
/// unfused `Step::Conv`.
///
/// # Errors
/// Returns [`IrError::Validation`] when the graph fails validation.
pub fn normalize(g: &mut Graph) -> Result<RewriteLog, IrError> {
    let facts = g.infer()?;
    let mut log = RewriteLog::default();
    for (idx, y) in facts.iter().enumerate() {
        let node = g.node_mut(NodeId(idx));
        let Op::Conv { params: p, out_channels, ref mut epilogue, .. } = node.op else { continue };
        if epilogue.layout != PackLayout::Panel || p.groups != 1 {
            continue;
        }
        let x = facts[node.inputs[0].0];
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

    /// `Input → Conv(params) → Output`; returns the graph and the conv.
    fn one_conv(input: Shape4, params: Conv2dParams, out_channels: usize) -> (Graph, NodeId) {
        let mut g = Graph::new(input);
        let epilogue = EpilogueSpec::default();
        let c = g.push(Op::Conv { layer: 0, params, out_channels, epilogue }, &[g.input()]);
        let o = g.push(Op::Output, &[c]);
        g.set_output(o);
        (g, c)
    }

    fn spec(g: &Graph, id: NodeId) -> EpilogueSpec {
        let Op::Conv { epilogue, .. } = g.node(id).op else { panic!("not a conv") };
        epilogue
    }

    #[test]
    fn tiny_and_grouped_convs_keep_the_panel_layout() {
        // 4·8·1·1·4·4 = 512 MACs < threshold → stays Panel, direct loops.
        let (mut g, c) = one_conv(Shape4::new(1, 8, 4, 4), Conv2dParams::new(1, 1), 4);
        assert!(normalize(&mut g).unwrap().applied.is_empty());
        assert_eq!(spec(&g, c).layout, PackLayout::Panel);

        // Depthwise (groups == channels) is never annotated.
        let dw = Conv2dParams::new(3, 3).with_padding(1).with_groups(32);
        let (mut g, c) = one_conv(Shape4::new(1, 32, 32, 32), dw, 32);
        normalize(&mut g).unwrap();
        assert_eq!(spec(&g, c).layout, PackLayout::Panel);
    }

    #[test]
    fn big_1x1_conv_gets_im2col_skip() {
        let (mut g, c) = one_conv(Shape4::new(1, 64, 14, 14), Conv2dParams::new(1, 1), 64);
        assert_eq!(normalize(&mut g).unwrap().applied, vec!["annotate-layout"]);
        let spec = spec(&g, c);
        assert_eq!(spec.layout, PackLayout::KPair);
        assert!(spec.im2col_skip);
    }
}

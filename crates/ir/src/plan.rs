//! Lowering: a [`Graph`] becomes an executable [`Plan`].
//!
//! A plan is a flat step list over dense value *slots* — the executor keeps
//! a `Vec<Option<Tensor>>` indexed by slot, runs steps in order, and frees
//! each slot after its last read ([`Plan::drop_after`]), matching the
//! sequential runtime's peak-memory behaviour. Lowering happens once per
//! cache install; serving never touches the graph again.
//!
//! Lowering is intentionally dumb: one step per node, in node order. Every
//! decision is already recorded in each conv's
//! [`EpilogueSpec`](crate::graph::EpilogueSpec), its activation by the
//! builder and its pack layout by [`crate::normalize`].

use sushi_tensor::ops::activation::Activation;
use sushi_tensor::PackLayout;

use crate::error::IrError;
use crate::graph::{Graph, NodeId, Op};

/// One executable step of a lowered plan. `src`/`dst` (and `a`/`b`) are
/// slot indices into the executor's value table.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Unfused conv on the direct/panel path: conv, then cached bias,
    /// requantize, activation — the pre-IR per-layer sequence.
    Conv {
        /// SuperNet layer index (resolves cached weights and conv params).
        layer: usize,
        /// Post-requantization activation.
        act: Activation,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Fused conv on the k-pair `pmaddwd` path: bias + requantization +
    /// activation applied in the microkernel epilogue.
    FusedConv {
        /// SuperNet layer index (resolves cached weights and conv params).
        layer: usize,
        /// Activation folded into the epilogue.
        act: Activation,
        /// The patch matrix is the input slice itself (1×1/s1/p0 dense).
        im2col_skip: bool,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Standalone int8 activation. Lowering never emits it: every
    /// activation belongs to a conv's epilogue or an add. It stays because
    /// the benchmark package matches `Step` exhaustively; the executor
    /// still runs it.
    Act {
        /// The activation.
        act: Activation,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Saturating residual add with optional fused post-activation.
    Add {
        /// Left operand slot.
        a: usize,
        /// Right operand slot.
        b: usize,
        /// Post-add activation.
        act: Activation,
        /// Output slot.
        dst: usize,
    },
    /// Squeeze-excite gating over the cached SE layer pair.
    SqueezeExcite {
        /// SE reduce layer index.
        reduce: usize,
        /// SE expand layer index.
        expand: usize,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Int8 max-pool.
    MaxPool {
        /// Square window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on all sides.
        padding: usize,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Global average pool to `(N, C, 1, 1)`.
    GlobalAvgPool {
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
}

impl Step {
    /// Slots this step reads.
    fn reads(&self) -> Vec<usize> {
        match *self {
            Step::Conv { src, .. }
            | Step::FusedConv { src, .. }
            | Step::Act { src, .. }
            | Step::SqueezeExcite { src, .. }
            | Step::MaxPool { src, .. }
            | Step::GlobalAvgPool { src, .. } => vec![src],
            Step::Add { a, b, .. } => vec![a, b],
        }
    }
}

/// An executable lowering of one SubNet graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Steps, in execution order.
    pub steps: Vec<Step>,
    /// `drop_after[i]` lists the slots whose last read is step `i`; the
    /// executor frees them right after running the step.
    pub drop_after: Vec<Vec<usize>>,
    /// Total number of value slots.
    pub slots: usize,
    /// Slot the caller's quantized input is placed in before step 0.
    pub input_slot: usize,
    /// Slot holding the final pre-dequantization activations; the executor
    /// dequantizes it into logits after the last step.
    pub logits_slot: usize,
}

impl Plan {
    /// Lowers a validated graph.
    ///
    /// # Errors
    /// Returns [`IrError::NoOutput`]/[`IrError::Validation`] for an invalid
    /// graph.
    pub fn lower(g: &Graph) -> Result<Self, IrError> {
        let output = g.output().ok_or(IrError::NoOutput)?;
        g.infer()?;

        // Every node but the output writes a fresh slot, in node order: the
        // input (node 0) gets slot 0. Validation has checked that nothing
        // reads the output (the one f32 value).
        let mut slot_of: Vec<Option<usize>> = vec![None; g.len()];
        let mut steps = Vec::new();
        let mut slots = 0usize;
        for idx in 0..g.len() {
            let node = g.node(NodeId(idx));
            let src = |i: usize| {
                slot_of[node.inputs[i].0]
                    .ok_or(IrError::Validation { node: idx, what: "reads the output node" })
            };
            let dst = slots;
            let step = match node.op {
                Op::Input => None,
                Op::Output => continue,
                Op::Conv { layer, epilogue: e, .. } if e.layout == PackLayout::KPair => {
                    let im2col_skip = e.im2col_skip;
                    Some(Step::FusedConv { layer, act: e.act, im2col_skip, src: src(0)?, dst })
                }
                Op::Conv { layer, epilogue: e, .. } => {
                    Some(Step::Conv { layer, act: e.act, src: src(0)?, dst })
                }
                Op::Add { act } => Some(Step::Add { a: src(0)?, b: src(1)?, act, dst }),
                Op::SqueezeExcite { reduce, expand } => {
                    Some(Step::SqueezeExcite { reduce, expand, src: src(0)?, dst })
                }
                Op::MaxPool { window, stride, padding } => {
                    Some(Step::MaxPool { window, stride, padding, src: src(0)?, dst })
                }
                Op::GlobalAvgPool => Some(Step::GlobalAvgPool { src: src(0)?, dst }),
            };
            steps.extend(step);
            slot_of[idx] = Some(dst);
            slots += 1;
        }
        let out = g.node(output);
        let logits_slot = match out.op {
            Op::Output => slot_of[out.inputs[0].0],
            _ => None,
        }
        .ok_or(IrError::NoOutput)?;

        // Last-read analysis: free each slot right after the step that
        // reads it last (the logits slot survives to the end).
        let mut last_read: Vec<Option<usize>> = vec![None; slots];
        for (i, step) in steps.iter().enumerate() {
            for s in step.reads() {
                last_read[s] = Some(i);
            }
        }
        let mut drop_after = vec![Vec::new(); steps.len()];
        for (s, last) in last_read.iter().enumerate() {
            if let Some(i) = *last {
                if s != logits_slot {
                    drop_after[i].push(s);
                }
            }
        }

        Ok(Self { steps, drop_after, slots, input_slot: 0, logits_slot })
    }

    /// Number of convs lowered onto the fused k-pair datapath.
    #[must_use]
    pub fn fused_conv_count(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::FusedConv { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EpilogueSpec;
    use crate::normalize;
    use sushi_tensor::ops::conv::Conv2dParams;
    use sushi_tensor::Shape4;

    fn conv(layer: usize, k: usize, out_channels: usize, act: Activation) -> Op {
        Op::Conv {
            layer,
            params: Conv2dParams::new(k, k).with_padding(k / 2),
            out_channels,
            epilogue: EpilogueSpec { act, ..EpilogueSpec::default() },
        }
    }

    #[test]
    fn normalized_chain_lowers_to_one_fused_step() {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(3, 3, 16, Activation::Relu), &[g.input()]);
        let o = g.push(Op::Output, &[c]);
        g.set_output(o);
        // 16·8·3·3·16·16 = 294912 MACs ≫ threshold → k-pair layout.
        normalize(&mut g).unwrap();

        let plan = Plan::lower(&g).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.fused_conv_count(), 1);
        assert!(matches!(
            plan.steps[0],
            Step::FusedConv { layer: 3, act: Activation::Relu, im2col_skip: false, src, dst }
                if src == plan.input_slot && dst == plan.logits_slot
        ));
        // The input slot dies right after the only step.
        assert_eq!(plan.drop_after, vec![vec![plan.input_slot]]);
        assert_eq!(plan.slots, 2);
    }

    #[test]
    fn tiny_conv_lowers_to_direct_step_and_shared_slots_drop_late() {
        // Small shapes (2·2·3·3·4·4 = 576 MACs < 2048) keep every conv
        // below the GEMM threshold → `Conv` steps; the residual makes
        // slot 1 live until the add.
        let mut g = Graph::new(Shape4::new(1, 2, 4, 4));
        let c1 = g.push(conv(0, 3, 2, Activation::None), &[g.input()]);
        let c2 = g.push(conv(1, 3, 2, Activation::None), &[c1]);
        let s = g.push(Op::Add { act: Activation::Relu }, &[c2, c1]);
        let o = g.push(Op::Output, &[s]);
        g.set_output(o);
        normalize(&mut g).unwrap();

        let plan = Plan::lower(&g).unwrap();
        assert_eq!(plan.fused_conv_count(), 0);
        let convs = plan.steps.iter().filter(|s| matches!(s, Step::Conv { .. })).count();
        assert_eq!(convs, 2);
        // Steps: conv(0→1), conv(1→2), add(2,1→3 with relu).
        assert!(matches!(plan.steps[2], Step::Add { act: Activation::Relu, .. }));
        let Step::Add { a: add_a, b: add_b, dst, .. } = plan.steps[2] else {
            panic!("expected add");
        };
        assert_eq!(dst, plan.logits_slot);
        // Slot 1 (first conv's output) is read by both the second conv and
        // the add, so it drops only after the add.
        assert!(plan.drop_after[2].contains(&add_b) || plan.drop_after[2].contains(&add_a));
        assert!(plan.drop_after[1].is_empty() || !plan.drop_after[1].contains(&1));
    }

    #[test]
    fn output_must_read_a_real_value() {
        let g = Graph::new(Shape4::new(1, 3, 8, 8));
        assert!(matches!(Plan::lower(&g), Err(IrError::NoOutput)));
    }
}

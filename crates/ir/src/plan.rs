//! Lowering: a normalized [`Graph`] becomes an executable [`Plan`].
//!
//! A plan is a flat step list over dense value *slots* — the executor keeps
//! a `Vec<Option<Tensor>>` indexed by slot, runs steps in order, and frees
//! each slot after its last read ([`Plan::drop_after`]), matching the
//! sequential runtime's peak-memory behaviour. Lowering happens once per
//! cache install; serving never touches the graph again.
//!
//! Lowering is intentionally dumb: every fusion decision was already made by
//! the fold pass ([`crate::normalize`]), recorded in each conv's
//! [`EpilogueSpec`](crate::graph::EpilogueSpec). A node the pass should have
//! eliminated (`Bias`, `Requant`) is a hard [`IrError::NotNormalized`] — a
//! fold bug surfaces at install time, not as a silently slow or wrong
//! datapath.

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
        /// Whether the layer's bias is applied.
        bias: bool,
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
        /// Whether the layer's bias is folded into the epilogue.
        bias: bool,
        /// Activation folded into the epilogue.
        act: Activation,
        /// The patch matrix is the input slice itself (1×1/s1/p0 dense).
        im2col_skip: bool,
        /// Input slot.
        src: usize,
        /// Output slot.
        dst: usize,
    },
    /// Standalone int8 activation (kept when fusion was blocked, e.g. a
    /// producer with several consumers).
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
    /// Lowers a validated, normalized graph.
    ///
    /// # Errors
    /// Returns [`IrError::NoOutput`]/[`IrError::Validation`] for an invalid
    /// graph and [`IrError::NotNormalized`] when a node the fold pass
    /// eliminates is still present.
    pub fn lower(g: &Graph) -> Result<Self, IrError> {
        let output = g.output().ok_or(IrError::NoOutput)?;
        g.infer()?;

        let mut slot_of: Vec<Option<usize>> = vec![None; g.len()];
        let mut slots = 0usize;
        let mut alloc = |slot_of: &mut Vec<Option<usize>>, id: NodeId| {
            let s = slots;
            slots += 1;
            slot_of[id.0] = Some(s);
            s
        };
        let slot = |slot_of: &[Option<usize>], id: NodeId, what: &'static str| {
            slot_of[id.0].ok_or(IrError::NotNormalized { node: id.0, what })
        };

        let mut steps = Vec::new();
        let mut input_slot = 0usize;
        let mut logits_slot = None;
        for id in g.live_ids() {
            let node = g.node(id);
            let nn = |what: &'static str| IrError::NotNormalized { node: id.0, what };
            match &node.op {
                Op::Input => {
                    input_slot = alloc(&mut slot_of, id);
                }
                Op::Conv { layer, epilogue, .. } => {
                    if !epilogue.requant {
                        return Err(nn("conv without fused requantization"));
                    }
                    let src = slot(&slot_of, node.inputs[0], "conv reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    if epilogue.layout == PackLayout::KPair {
                        steps.push(Step::FusedConv {
                            layer: *layer,
                            bias: epilogue.bias,
                            act: epilogue.act,
                            im2col_skip: epilogue.im2col_skip,
                            src,
                            dst,
                        });
                    } else {
                        steps.push(Step::Conv {
                            layer: *layer,
                            bias: epilogue.bias,
                            act: epilogue.act,
                            src,
                            dst,
                        });
                    }
                }
                Op::Act(act) => {
                    let src = slot(&slot_of, node.inputs[0], "act reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    steps.push(Step::Act { act: *act, src, dst });
                }
                Op::Add { act } => {
                    let a = slot(&slot_of, node.inputs[0], "add reads a slotless node")?;
                    let b = slot(&slot_of, node.inputs[1], "add reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    steps.push(Step::Add { a, b, act: *act, dst });
                }
                Op::SqueezeExcite { reduce, expand } => {
                    let src = slot(&slot_of, node.inputs[0], "se reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    steps.push(Step::SqueezeExcite { reduce: *reduce, expand: *expand, src, dst });
                }
                Op::MaxPool { window, stride, padding } => {
                    let src = slot(&slot_of, node.inputs[0], "max-pool reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    steps.push(Step::MaxPool {
                        window: *window,
                        stride: *stride,
                        padding: *padding,
                        src,
                        dst,
                    });
                }
                Op::GlobalAvgPool => {
                    let src = slot(&slot_of, node.inputs[0], "pool reads a slotless node")?;
                    let dst = alloc(&mut slot_of, id);
                    steps.push(Step::GlobalAvgPool { src, dst });
                }
                Op::Output => {
                    if id != output {
                        return Err(nn("stray output node"));
                    }
                    logits_slot =
                        Some(slot(&slot_of, node.inputs[0], "output reads a slotless node")?);
                }
                Op::Bias { .. } => return Err(nn("unfused bias")),
                Op::Requant => return Err(nn("unfused requantization")),
            }
        }
        let logits_slot = logits_slot.ok_or(IrError::NoOutput)?;

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

        Ok(Self { steps, drop_after, slots, input_slot, logits_slot })
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

    fn conv(layer: usize, k: usize, out_channels: usize) -> Op {
        Op::Conv {
            layer,
            params: Conv2dParams::new(k, k).with_padding(k / 2),
            out_channels,
            epilogue: EpilogueSpec::default(),
        }
    }

    #[test]
    fn normalized_chain_lowers_to_one_fused_step() {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(3, 3, 16), &[g.input()]);
        let b = g.push(Op::Bias { layer: 3, channels: 16 }, &[c]);
        let r = g.push(Op::Requant, &[b]);
        let a = g.push(Op::Act(sushi_tensor::ops::activation::Activation::Relu), &[r]);
        let o = g.push(Op::Output, &[a]);
        g.set_output(o);
        normalize(&mut g).unwrap();

        let plan = Plan::lower(&g).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.fused_conv_count(), 1);
        assert!(matches!(
            plan.steps[0],
            Step::FusedConv { layer: 3, bias: true, src, dst, .. }
                if src == plan.input_slot && dst == plan.logits_slot
        ));
        // The input slot dies right after the only step.
        assert_eq!(plan.drop_after, vec![vec![plan.input_slot]]);
        assert_eq!(plan.slots, 2);
    }

    #[test]
    fn unnormalized_nodes_are_rejected() {
        let mut g = Graph::new(Shape4::new(1, 8, 16, 16));
        let c = g.push(conv(0, 3, 16), &[g.input()]);
        let r = g.push(Op::Requant, &[c]);
        let o = g.push(Op::Output, &[r]);
        g.set_output(o);
        // Not normalized: the conv still produces raw accumulators (hit
        // first, in topological order) and the requant is standalone.
        assert!(matches!(Plan::lower(&g), Err(IrError::NotNormalized { .. })));
        normalize(&mut g).unwrap();
        assert!(Plan::lower(&g).is_ok());
    }

    #[test]
    fn tiny_conv_lowers_to_direct_step_and_shared_slots_drop_late() {
        use sushi_tensor::ops::activation::Activation;
        // Small shapes (2·2·3·3·4·4 = 576 MACs < 2048) keep every conv
        // below the GEMM threshold → `Conv` steps; the residual makes
        // slot 1 live until the add.
        let mut g = Graph::new(Shape4::new(1, 2, 4, 4));
        let c1 = g.push(conv(0, 3, 2), &[g.input()]);
        let r1 = g.push(Op::Requant, &[c1]);
        let c2 = g.push(conv(1, 3, 2), &[r1]);
        let r2 = g.push(Op::Requant, &[c2]);
        let s = g.push(Op::Add { act: Activation::None }, &[r2, r1]);
        let a = g.push(Op::Act(Activation::Relu), &[s]);
        let o = g.push(Op::Output, &[a]);
        g.set_output(o);
        normalize(&mut g).unwrap();

        let plan = Plan::lower(&g).unwrap();
        assert_eq!(plan.fused_conv_count(), 0);
        let convs = plan.steps.iter().filter(|s| matches!(s, Step::Conv { .. })).count();
        assert_eq!(convs, 2);
        // Steps: conv(0→1), conv(1→2), add(2,1→3 with fused relu).
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

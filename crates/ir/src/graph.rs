//! The typed op-graph: nodes, dtype/shape facts on every edge, validation.
//!
//! A [`Graph`] is a small DAG describing one SubNet's forward pass in the
//! quantized serving domain. Node inputs always point at *earlier* nodes
//! (append order is topological order — the fold pass only splices
//! consumers onto earlier producers), so inference, folding and lowering
//! are single forward sweeps.
//!
//! Every node has an inferred [`Fact`] — a [`Shape4`] plus a [`DType`] —
//! computed by [`Graph::infer`], which doubles as structural validation:
//! channel counts, accumulator/int8 domain transitions, pooling geometry
//! and residual shape agreement are all checked there, once, instead of
//! erroring mid-forward at serving time.

use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::Conv2dParams;
use sushi_tensor::shape::conv_out_dim;
use sushi_tensor::{PackLayout, Shape4};

use crate::error::IrError;

/// Index of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Element type carried on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Quantized activations (network-wide activation quantization).
    I8,
    /// Raw convolution accumulators (pre-requantization).
    I32,
    /// Dequantized values (the output logits).
    F32,
}

/// The inferred type fact for one node's output edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fact {
    /// NCHW shape of the value.
    pub shape: Shape4,
    /// Element type of the value.
    pub dtype: DType,
}

/// What has been fused into a [`Op::Conv`] node's writeback so far.
///
/// A freshly built conv has everything unfused (`Default`): bias add,
/// requantization and activation are separate downstream nodes. The fold
/// pass ([`crate::normalize`]) moves them in; lowering then bakes the final
/// spec into a `sushi_tensor::Epilogue` per cache install.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpilogueSpec {
    /// The layer's i32 bias is added to the accumulator.
    pub bias: bool,
    /// The accumulator is requantized to the activation quantization at
    /// writeback (the conv's output dtype becomes [`DType::I8`]).
    pub requant: bool,
    /// Activation applied to the requantized output.
    pub act: Activation,
    /// The conv entry point the lowered step's weight pack is for:
    /// [`PackLayout::KPair`] selects the fused conv (`Step::FusedConv`),
    /// [`PackLayout::Panel`] the unfused one.
    pub layout: PackLayout,
    /// The patch matrix equals the input slice (1×1/stride-1/unpadded dense
    /// conv), so the fused step skips im2col entirely.
    pub im2col_skip: bool,
}

/// One operation of the serving graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// The network input: quantized i8 activations.
    Input,
    /// Quantized convolution over SuperNet layer `layer`, producing i32
    /// accumulators (or i8, once requantization is fused — see
    /// [`EpilogueSpec`]).
    Conv {
        /// Index into the SuperNet's flattened layer list.
        layer: usize,
        /// Conv hyper-parameters the SubNet slice resolves to.
        params: Conv2dParams,
        /// Active output channels (the slice's kernel count).
        out_channels: usize,
        /// Fused writeback state.
        epilogue: EpilogueSpec,
    },
    /// Adds SuperNet layer `layer`'s i32 bias vector to the accumulators.
    Bias {
        /// Index into the SuperNet's flattened layer list.
        layer: usize,
        /// Bias length (must match the producing conv's output channels).
        channels: usize,
    },
    /// Requantizes i32 accumulators to i8 under the network's activation
    /// quantization.
    Requant,
    /// Int8 activation (exact ReLU; h-family via dequant∘act∘requant).
    Act(Activation),
    /// Saturating residual add of two equal-scale i8 tensors, with an
    /// optionally fused post-activation.
    Add {
        /// Activation applied to the sum ([`Activation::None`] until the
        /// fold pass moves a following `Act` in).
        act: Activation,
    },
    /// Squeeze-excite gating (pooled 1×1 reduce → 1×1 expand → channel
    /// rescale), kept opaque: `reduce`/`expand` are SuperNet layer indices.
    SqueezeExcite {
        /// SE reduce layer index.
        reduce: usize,
        /// SE expand layer index.
        expand: usize,
    },
    /// Int8 max-pool.
    MaxPool {
        /// Square window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on all sides.
        padding: usize,
    },
    /// Global average pool to `(N, C, 1, 1)` (dequant → mean → requant).
    GlobalAvgPool,
    /// The graph result: dequantized logits.
    Output,
}

/// A node: an [`Op`] plus its input edges. Dead nodes (folded away by
/// [`crate::normalize`]) stay in place as tombstones so [`NodeId`]s remain
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Producer nodes, in operand order.
    pub inputs: Vec<NodeId>,
    /// Tombstone flag; dead nodes are skipped by inference and lowering.
    pub dead: bool,
}

/// A typed, validated op-graph for one SubNet forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    input_shape: Shape4,
    output: Option<NodeId>,
}

impl Graph {
    /// Creates a graph whose node 0 is [`Op::Input`] with `input_shape`.
    #[must_use]
    pub fn new(input_shape: Shape4) -> Self {
        Self {
            nodes: vec![Node { op: Op::Input, inputs: Vec::new(), dead: false }],
            input_shape,
            output: None,
        }
    }

    /// The input node (always id 0).
    #[must_use]
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// Appends a node and returns its id. Inputs must refer to existing
    /// earlier nodes (append order is topological order).
    pub fn push(&mut self, op: Op, inputs: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { op, inputs: inputs.to_vec(), dead: false });
        id
    }

    /// Declares `id` as the graph output.
    pub fn set_output(&mut self, id: NodeId) {
        self.output = Some(id);
    }

    /// The declared output node.
    #[must_use]
    pub fn output(&self) -> Option<NodeId> {
        self.output
    }

    /// The node behind `id` (including tombstones).
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of node slots (including tombstones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true: node 0 is the input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live nodes.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Ids of live nodes, in topological (append) order.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| !n.dead).map(|(i, _)| NodeId(i))
    }

    /// Live consumers of `id`, in topological order.
    #[must_use]
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && n.inputs.contains(&id))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Infers the output [`Fact`] of every live node, validating the graph
    /// in the process. Dead slots get `None`.
    ///
    /// # Errors
    /// Returns [`IrError::Validation`] on any dtype/shape/channel-count
    /// violation, or when an input edge points at a dead or later node.
    pub fn infer(&self) -> Result<Vec<Option<Fact>>, IrError> {
        let mut facts: Vec<Option<Fact>> = vec![None; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.dead {
                continue;
            }
            let err = |what: &'static str| IrError::Validation { node: idx, what };
            let mut ins = Vec::with_capacity(node.inputs.len());
            for &NodeId(i) in &node.inputs {
                if i >= idx {
                    return Err(err("input edge must point at an earlier node"));
                }
                ins.push(facts[i].ok_or(err("input edge points at a dead node"))?);
            }
            let arity = |n: usize| if ins.len() == n { Ok(()) } else { Err(err("wrong arity")) };
            let fact = match &node.op {
                Op::Input => {
                    arity(0)?;
                    Fact { shape: self.input_shape, dtype: DType::I8 }
                }
                Op::Conv { params, out_channels, epilogue, .. } => {
                    arity(1)?;
                    let x = ins[0];
                    if x.dtype != DType::I8 {
                        return Err(err("conv input must be i8"));
                    }
                    if params.groups == 0 || !x.shape.c.is_multiple_of(params.groups) {
                        return Err(err("conv channels not divisible by groups"));
                    }
                    if !out_channels.is_multiple_of(params.groups) {
                        return Err(err("conv kernels not divisible by groups"));
                    }
                    let oh =
                        conv_out_dim(x.shape.h, params.kernel_h, params.stride, params.padding)
                            .filter(|&d| d > 0)
                            .ok_or(err("conv output height is empty"))?;
                    let ow =
                        conv_out_dim(x.shape.w, params.kernel_w, params.stride, params.padding)
                            .filter(|&d| d > 0)
                            .ok_or(err("conv output width is empty"))?;
                    Fact {
                        shape: Shape4::new(x.shape.n, *out_channels, oh, ow),
                        dtype: if epilogue.requant { DType::I8 } else { DType::I32 },
                    }
                }
                Op::Bias { channels, .. } => {
                    arity(1)?;
                    let x = ins[0];
                    if x.dtype != DType::I32 {
                        return Err(err("bias applies to i32 accumulators"));
                    }
                    if x.shape.c != *channels {
                        return Err(err("bias length must match channels"));
                    }
                    x
                }
                Op::Requant => {
                    arity(1)?;
                    let x = ins[0];
                    if x.dtype != DType::I32 {
                        return Err(err("requant applies to i32 accumulators"));
                    }
                    Fact { dtype: DType::I8, ..x }
                }
                Op::Act(_) => {
                    arity(1)?;
                    if ins[0].dtype != DType::I8 {
                        return Err(err("activation applies to i8"));
                    }
                    ins[0]
                }
                Op::Add { .. } => {
                    arity(2)?;
                    if ins[0].dtype != DType::I8 || ins[1].dtype != DType::I8 {
                        return Err(err("residual add applies to i8"));
                    }
                    if ins[0].shape != ins[1].shape {
                        return Err(err("residual add shapes must agree"));
                    }
                    ins[0]
                }
                Op::SqueezeExcite { .. } => {
                    arity(1)?;
                    if ins[0].dtype != DType::I8 {
                        return Err(err("squeeze-excite applies to i8"));
                    }
                    ins[0]
                }
                Op::MaxPool { window, stride, padding } => {
                    arity(1)?;
                    let x = ins[0];
                    if x.dtype != DType::I8 {
                        return Err(err("max-pool applies to i8"));
                    }
                    let oh = conv_out_dim(x.shape.h, *window, *stride, *padding)
                        .filter(|&d| d > 0)
                        .ok_or(err("max-pool output height is empty"))?;
                    let ow = conv_out_dim(x.shape.w, *window, *stride, *padding)
                        .filter(|&d| d > 0)
                        .ok_or(err("max-pool output width is empty"))?;
                    Fact { shape: Shape4::new(x.shape.n, x.shape.c, oh, ow), dtype: DType::I8 }
                }
                Op::GlobalAvgPool => {
                    arity(1)?;
                    let x = ins[0];
                    if x.dtype != DType::I8 {
                        return Err(err("global-avg-pool applies to i8"));
                    }
                    Fact { shape: Shape4::new(x.shape.n, x.shape.c, 1, 1), dtype: DType::I8 }
                }
                Op::Output => {
                    arity(1)?;
                    if ins[0].dtype != DType::I8 {
                        return Err(err("output expects i8 activations to dequantize"));
                    }
                    Fact { dtype: DType::F32, ..ins[0] }
                }
            };
            facts[idx] = Some(fact);
        }
        if let Some(NodeId(o)) = self.output {
            if facts.get(o).copied().flatten().is_none() {
                return Err(IrError::Validation { node: o, what: "output node is dead" });
            }
        }
        Ok(facts)
    }

    /// Validates the graph (see [`Graph::infer`]) and checks an output is
    /// declared.
    ///
    /// # Errors
    /// Returns an error when validation fails or no output is set.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.output.is_none() {
            return Err(IrError::NoOutput);
        }
        self.infer().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_op(layer: usize, k: usize, out_channels: usize) -> Op {
        Op::Conv {
            layer,
            params: Conv2dParams::new(k, k).with_padding(k / 2),
            out_channels,
            epilogue: EpilogueSpec::default(),
        }
    }

    #[test]
    fn infers_conv_chain_facts() {
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c = g.push(conv_op(0, 3, 16), &[g.input()]);
        let b = g.push(Op::Bias { layer: 0, channels: 16 }, &[c]);
        let r = g.push(Op::Requant, &[b]);
        let a = g.push(Op::Act(Activation::Relu), &[r]);
        let o = g.push(Op::Output, &[a]);
        g.set_output(o);
        let facts = g.infer().unwrap();
        assert_eq!(
            facts[c.0].unwrap(),
            Fact { shape: Shape4::new(1, 16, 8, 8), dtype: DType::I32 }
        );
        assert_eq!(facts[r.0].unwrap().dtype, DType::I8);
        assert_eq!(facts[o.0].unwrap().dtype, DType::F32);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_domain_violations() {
        // Activation directly on accumulators.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c = g.push(conv_op(0, 3, 4), &[g.input()]);
        let a = g.push(Op::Act(Activation::Relu), &[c]);
        g.set_output(a);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));

        // Bias channel mismatch.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c = g.push(conv_op(0, 3, 4), &[g.input()]);
        let b = g.push(Op::Bias { layer: 0, channels: 5 }, &[c]);
        g.set_output(b);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));

        // Residual add across different shapes.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c1 = g.push(conv_op(0, 3, 4), &[g.input()]);
        let r1 = g.push(Op::Requant, &[c1]);
        let c2 = g.push(conv_op(1, 3, 6), &[g.input()]);
        let r2 = g.push(Op::Requant, &[c2]);
        let s = g.push(Op::Add { act: Activation::None }, &[r1, r2]);
        g.set_output(s);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));
    }

    #[test]
    fn rejects_missing_output_and_empty_conv() {
        let g = Graph::new(Shape4::new(1, 3, 8, 8));
        assert!(matches!(g.validate(), Err(IrError::NoOutput)));

        let mut g = Graph::new(Shape4::new(1, 3, 2, 2));
        let c = g.push(
            Op::Conv {
                layer: 0,
                params: Conv2dParams::new(5, 5),
                out_channels: 4,
                epilogue: EpilogueSpec::default(),
            },
            &[g.input()],
        );
        g.set_output(c);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));
    }

    #[test]
    fn pool_and_head_shapes_flow_through() {
        let mut g = Graph::new(Shape4::new(2, 3, 9, 9));
        let c = g.push(conv_op(0, 3, 8), &[g.input()]);
        let r = g.push(Op::Requant, &[c]);
        let mp = g.push(Op::MaxPool { window: 3, stride: 2, padding: 1 }, &[r]);
        let gp = g.push(Op::GlobalAvgPool, &[mp]);
        let o = g.push(Op::Output, &[gp]);
        g.set_output(o);
        let facts = g.infer().unwrap();
        assert_eq!(facts[mp.0].unwrap().shape, Shape4::new(2, 8, 5, 5));
        assert_eq!(facts[gp.0].unwrap().shape, Shape4::new(2, 8, 1, 1));
    }

    #[test]
    fn consumers_and_live_ids_skip_tombstones() {
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c = g.push(conv_op(0, 3, 4), &[g.input()]);
        let r = g.push(Op::Requant, &[c]);
        assert_eq!(g.consumers(c), vec![r]);
        g.node_mut(r).dead = true;
        assert!(g.consumers(c).is_empty());
        assert_eq!(g.live_count(), 2);
    }
}

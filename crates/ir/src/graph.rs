//! The typed op-graph: nodes, dtype/shape facts on every edge, validation.
//!
//! A [`Graph`] is a small DAG describing one SubNet's forward pass in the
//! quantized serving domain, built directly in normal form: each conv's
//! bias, requantization and activation belong to its [`EpilogueSpec`], and
//! a residual's post-activation to its [`Op::Add`]. Node inputs always point
//! at *earlier* nodes (append order is topological order), and nothing is
//! ever removed, so inference, annotation and lowering are single forward
//! sweeps.
//!
//! Every node has an inferred [`Fact`] — a [`Shape4`] plus a [`DType`] —
//! computed by [`Graph::infer`], which doubles as structural validation:
//! channel counts, int8/f32 domains, pooling geometry and residual shape
//! agreement are all checked there, once, instead of erroring mid-forward
//! at serving time.

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

/// How a [`Op::Conv`] node writes back.
///
/// Every conv adds its layer's i32 bias to the accumulators and requantizes
/// them to the activation quantization; `act` follows. The builder sets
/// `act`, [`crate::normalize`] the layout fields; a cache install bakes the
/// spec into a `sushi_tensor::Epilogue`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpilogueSpec {
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
    /// Quantized convolution over SuperNet layer `layer`, producing i8
    /// through its [`EpilogueSpec`].
    Conv {
        /// Index into the SuperNet's flattened layer list.
        layer: usize,
        /// Conv hyper-parameters the SubNet slice resolves to.
        params: Conv2dParams,
        /// Active output channels (the slice's kernel count).
        out_channels: usize,
        /// Writeback: bias, requantization, activation and pack layout.
        epilogue: EpilogueSpec,
    },
    /// Saturating residual add of two equal-scale i8 tensors, then an
    /// activation.
    Add {
        /// Activation applied to the sum.
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

/// A node: an [`Op`] plus its input edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Producer nodes, in operand order.
    pub inputs: Vec<NodeId>,
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
        Self { nodes: vec![Node { op: Op::Input, inputs: Vec::new() }], input_shape, output: None }
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
        self.nodes.push(Node { op, inputs: inputs.to_vec() });
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

    /// The node behind `id`.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true: node 0 is the input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Infers the output [`Fact`] of every node, validating the graph in
    /// the process.
    ///
    /// # Errors
    /// Returns [`IrError::Validation`] on any dtype/shape/channel-count
    /// violation, when an input edge points at a later node, or when an
    /// [`Op::Output`] node is not the declared output.
    pub fn infer(&self) -> Result<Vec<Fact>, IrError> {
        let mut facts: Vec<Fact> = Vec::with_capacity(self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let err = |what: &'static str| IrError::Validation { node: idx, what };
            let mut ins = Vec::with_capacity(node.inputs.len());
            for &NodeId(i) in &node.inputs {
                if i >= idx {
                    return Err(err("input edge must point at an earlier node"));
                }
                ins.push(facts[i]);
            }
            let arity = |n: usize| if ins.len() == n { Ok(()) } else { Err(err("wrong arity")) };
            let fact = match &node.op {
                Op::Input => {
                    arity(0)?;
                    Fact { shape: self.input_shape, dtype: DType::I8 }
                }
                Op::Conv { params, out_channels, .. } => {
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
                    Fact { shape: Shape4::new(x.shape.n, *out_channels, oh, ow), dtype: DType::I8 }
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
                    if self.output != Some(NodeId(idx)) {
                        return Err(err("output node is not the declared output"));
                    }
                    if ins[0].dtype != DType::I8 {
                        return Err(err("output expects i8 activations to dequantize"));
                    }
                    Fact { dtype: DType::F32, ..ins[0] }
                }
            };
            facts.push(fact);
        }
        if let Some(NodeId(o)) = self.output {
            if o >= facts.len() {
                return Err(IrError::Validation { node: o, what: "output node does not exist" });
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
        let c = g.push(
            Op::Conv {
                layer: 0,
                params: Conv2dParams::new(3, 3).with_padding(1),
                out_channels: 16,
                epilogue: EpilogueSpec { act: Activation::Relu, ..EpilogueSpec::default() },
            },
            &[g.input()],
        );
        let o = g.push(Op::Output, &[c]);
        g.set_output(o);
        let facts = g.infer().unwrap();
        assert_eq!(facts[c.0], Fact { shape: Shape4::new(1, 16, 8, 8), dtype: DType::I8 });
        assert_eq!(facts[o.0].dtype, DType::F32);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_domain_violations() {
        // A conv reading the dequantized f32 output.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let o = g.push(Op::Output, &[g.input()]);
        g.set_output(o);
        g.push(conv_op(0, 3, 4), &[o]);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));

        // Kernels not divisible by the conv's groups.
        let mut g = Graph::new(Shape4::new(1, 4, 8, 8));
        let params = Conv2dParams::new(3, 3).with_padding(1).with_groups(4);
        let epilogue = EpilogueSpec::default();
        let c = g.push(Op::Conv { layer: 0, params, out_channels: 6, epilogue }, &[g.input()]);
        g.set_output(c);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));

        // Residual add across different shapes.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        let c1 = g.push(conv_op(0, 3, 4), &[g.input()]);
        let c2 = g.push(conv_op(1, 3, 6), &[g.input()]);
        let s = g.push(Op::Add { act: Activation::None }, &[c1, c2]);
        g.set_output(s);
        assert!(matches!(g.validate(), Err(IrError::Validation { .. })));

        // An output node other than the declared one.
        let mut g = Graph::new(Shape4::new(1, 3, 8, 8));
        g.push(Op::Output, &[g.input()]);
        let o = g.push(Op::Output, &[g.input()]);
        g.set_output(o);
        assert!(matches!(g.validate(), Err(IrError::Validation { node: 1, .. })));
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
        let mp = g.push(Op::MaxPool { window: 3, stride: 2, padding: 1 }, &[c]);
        let gp = g.push(Op::GlobalAvgPool, &[mp]);
        let o = g.push(Op::Output, &[gp]);
        g.set_output(o);
        let facts = g.infer().unwrap();
        assert_eq!(facts[mp.0].shape, Shape4::new(2, 8, 5, 5));
        assert_eq!(facts[gp.0].shape, Shape4::new(2, 8, 1, 1));
    }
}

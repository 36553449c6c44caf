//! # sushi-tensor
//!
//! Minimal, dependency-light tensor and neural-network-operator substrate for
//! the SUSHI (MLSys'23) reproduction.
//!
//! The SUSHI paper serves **int8-quantized** convolutional SubNets of a
//! weight-shared SuperNet on a custom FPGA accelerator. This crate provides
//! the numeric ground truth that the accelerator simulator in `sushi-accel`
//! is validated against:
//!
//! * [`Tensor`] — a dense NCHW tensor over `f32`, `i8` or `i32`.
//! * [`quant`] — symmetric/asymmetric int8 quantization with zero points and
//!   scales, matching the paper's footnote 3 ("weights, input activations,
//!   and zero points are quantized to int8, and the quantization scale is
//!   quantized into int32").
//! * [`ops`] — int8 2-D convolution (including depthwise and 1×1), pooling
//!   and the activation functions used by OFA-ResNet50 / OFA-MobileNetV3.
//!   Compute is int8 only; `f32` tensors carry dequantized pooling, gating,
//!   activations and logits. The conv keeps a naive reference loop as the
//!   correctness oracle and a fast im2col + panel-packed microkernel GEMM
//!   backend behind [`KernelPolicy`] (see [`ops::pack`] for the packed
//!   layouts and `docs/KERNELS.md` for the full contract).
//! * [`arena`] — reusable scratch memory so steady-state serving performs
//!   no per-query heap allocation for patch/packing/accumulator buffers.
//!
//! # Example
//!
//! ```
//! use sushi_tensor::ops::conv::{conv2d_i8_in, Conv2dParams};
//! use sushi_tensor::{Arena, KernelPolicy, QuantParams, Shape4, Tensor};
//!
//! # fn main() -> Result<(), sushi_tensor::TensorError> {
//! let q = QuantParams::new(0.05, 0);
//! let input = Tensor::<i8>::filled(Shape4::new(1, 3, 8, 8), 20);
//! let weights = Tensor::<i8>::filled(Shape4::new(4, 3, 3, 3), 10);
//! let params = Conv2dParams::new(3, 3).with_stride(1).with_padding(1);
//! let mut arena = Arena::new();
//! let out = conv2d_i8_in(
//!     &input, q, &weights, q, None, None, q, &params, KernelPolicy::Auto, &mut arena,
//! )?;
//! assert_eq!(out.shape().c, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod error;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;
mod workers;

pub use arena::Arena;
pub use error::TensorError;
pub use ops::epilogue::Epilogue;
pub use ops::gemm::KernelPolicy;
pub use ops::pack::{PackLayout, PackedConv2d};
pub use quant::QuantParams;
pub use rng::DetRng;
pub use shape::Shape4;
pub use tensor::Tensor;

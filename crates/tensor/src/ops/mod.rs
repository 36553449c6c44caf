//! Neural-network operators with switchable kernel backends.
//!
//! Every operator keeps its original straightforward loop nest — the
//! *golden model* that `sushi-accel`'s DPE-array functional simulation is
//! validated against — selectable via [`gemm::KernelPolicy::Naive`]. The
//! hot path is the [`im2col`] + panel-packed microkernel [`gemm`] backend
//! (operand layouts in [`pack`], reusable scratch in [`crate::arena`]),
//! which the default [`gemm::KernelPolicy::Auto`] picks for dense
//! convolutions large enough to amortize the lowering. Results are
//! bit-identical across backends.

pub mod activation;
pub mod conv;
pub mod epilogue;
pub mod gemm;
pub mod im2col;
pub mod pack;
pub mod pool;

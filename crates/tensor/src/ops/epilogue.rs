//! Typed GEMM epilogues: bias + requantization + activation fused into the
//! accumulator writeback.
//!
//! The unfused datapath finishes a quantized convolution in two separate
//! passes over the output tensor: requantize the `i32` accumulators
//! (adding bias), then the activation. An [`Epilogue`] is the install-time
//! record of that whole tail — built once per SubGraph install by the IR
//! lowering (`sushi-ir`) and applied by
//! [`crate::ops::conv::conv2d_i8_fused`] to each `MR×NR` register tile as
//! the GEMM's last K block finishes it, so the tile's sums go out as `i8`
//! without a second pass over an `i32` accumulator (`docs/KERNELS.md`,
//! "Fused tail").
//!
//! The tail runs in two passes over each finished row: a lane-wise
//! requantization (`quant::requantize_row`, with ReLU folded into its
//! lower clamp), then, for ReLU6 and the h-family, a 256-entry `i8` table
//! built at construction. Those activations' reference output depends only
//! on the requantized `i8`, so the table holds exactly the reference's
//! dequantize → activate → quantize.
//!
//! Exactness contract (pinned by the unit tests below and the cross-crate
//! fusion proptests): [`Epilogue::apply_row`] is **bit-identical** to
//! [`requantize_accumulator`](crate::quant::requantize_accumulator)
//! followed by the reference int8 activation (`max(0)` for ReLU;
//! quantize∘act∘dequantize for the h-family).

use crate::error::TensorError;
use crate::ops::activation::Activation;
use crate::ops::pack::NR;
use crate::quant::{requantize_row, QuantParams};

/// A fused conv tail: `i32` accumulator → bias add → rescale → round/clamp
/// to `i8` → activation.
///
/// Built once per cache install; [`crate::ops::conv::conv2d_i8_fused`]
/// applies it to each register tile the GEMM finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Epilogue {
    bias: Vec<i32>,
    /// The accumulator→output rescale, `in.scale · w.scale / out.scale`.
    scale: f32,
    out_q: QuantParams,
    act: Activation,
    /// The activation on every requantized `i8`, for the activations
    /// applied in the dequantized domain (ReLU6 and the h-family). `None`
    /// for no activation and for ReLU, which the requantization's clamp
    /// absorbs.
    table: Option<Box<[i8; 256]>>,
}

impl Epilogue {
    /// Epilogue for a plain quantized conv: per-channel bias, one
    /// accumulator scale, optional fused activation.
    ///
    /// # Errors
    /// [`TensorError::InvalidParam`] when `bias` is empty (every conv layer
    /// in the datapath carries a bias vector sized to its output channels),
    /// when `acc_scale` is not finite and positive, or when `out_q`'s scale
    /// is not. A NaN, infinite, zero or negative scale would write all
    /// zeros or saturate every output.
    pub fn uniform(
        bias: Vec<i32>,
        acc_scale: f32,
        out_q: QuantParams,
        act: Activation,
    ) -> Result<Self, TensorError> {
        let positive = |s: f32| s.is_finite() && s > 0.0;
        if bias.is_empty() {
            return Err(TensorError::InvalidParam { what: "epilogue needs per-channel bias" });
        }
        if !positive(acc_scale) {
            return Err(TensorError::InvalidParam {
                what: "epilogue scale must be finite and positive",
            });
        }
        if !positive(out_q.scale) {
            return Err(TensorError::InvalidParam {
                what: "epilogue output scale must be finite and positive",
            });
        }
        let table = match act {
            Activation::None | Activation::Relu => None,
            act => Some(Box::new(std::array::from_fn(|i| {
                out_q.quantize(act.apply(out_q.dequantize(i as u8 as i8)))
            }))),
        };
        Ok(Self { bias, scale: acc_scale, out_q, act, table })
    }

    /// Number of output channels this epilogue covers.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.bias.len()
    }

    /// The fused activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// The output quantization.
    #[must_use]
    pub fn out_q(&self) -> QuantParams {
        self.out_q
    }

    /// Applies the full tail to one accumulator value of channel `ch`.
    #[must_use]
    pub fn apply(&self, ch: usize, acc: i32) -> i8 {
        let mut out = [0i8];
        // Lengths match by construction; `ch` bounds are the caller's
        // contract, same as indexing `bias[ch]`.
        self.apply_row(ch, &[acc], &mut out).expect("single-element row");
        out[0]
    }

    /// Applies the full tail to one output row (all pixels of channel `ch`
    /// for one batch item), reading `acc` and writing `dst`.
    ///
    /// # Errors
    /// Returns an error when `acc`/`dst` lengths disagree or `ch` is out of
    /// range.
    pub fn apply_row(&self, ch: usize, acc: &[i32], dst: &mut [i8]) -> Result<(), TensorError> {
        if acc.len() != dst.len() {
            return Err(TensorError::LengthMismatch { expected: acc.len(), actual: dst.len() });
        }
        if ch >= self.bias.len() {
            return Err(TensorError::InvalidParam { what: "epilogue channel out of range" });
        }
        self.requantize(ch, acc, dst);
        self.activate(dst);
        Ok(())
    }

    /// The tail on one register-tile row of channel `ch`: the fused GEMM's
    /// writeback. The first `dst.len()` sums are real; the rest pad a
    /// ragged tile and are requantized but never written.
    #[inline]
    pub(crate) fn finish_tile_row(&self, ch: usize, sums: &[i32; NR], dst: &mut [i8]) {
        let mut q = [0i8; NR];
        self.requantize(ch, sums, &mut q);
        dst.copy_from_slice(&q[..dst.len()]);
        self.activate(dst);
    }

    /// The requantization pass: bias, rescale, round and clamp, with ReLU
    /// folded into the clamp.
    #[inline]
    fn requantize(&self, ch: usize, acc: &[i32], dst: &mut [i8]) {
        // ReLU is `max(0)` on the requantized value: a floor of 0.
        let floor = if self.act == Activation::Relu { 0 } else { i8::MIN };
        requantize_row(acc, self.bias[ch], self.scale, self.out_q.zero_point, floor, dst);
    }

    /// The table pass of the activations that need one.
    #[inline]
    fn activate(&self, dst: &mut [i8]) {
        if let Some(table) = &self.table {
            for d in dst {
                *d = table[usize::from(*d as u8)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::requantize_accumulator;
    use crate::rng::DetRng;

    const OUT_Q: QuantParams = QuantParams { scale: 8.0 / 127.0, zero_point: 0 };

    fn reference_tail(acc: i32, bias: i32, scale: f32, out_q: QuantParams, act: Activation) -> i8 {
        let q = requantize_accumulator(acc + bias, scale, out_q.zero_point);
        match act {
            Activation::None => q,
            Activation::Relu => q.max(0),
            other => out_q.quantize(other.apply(out_q.dequantize(q))),
        }
    }

    /// Across zero points (the ReLU floor and the table both depend on
    /// them) and row lengths that leave a ragged lane tail.
    #[test]
    fn uniform_matches_requantize_then_activation_bitwise() {
        let mut rng = DetRng::new(404);
        for out_q in [OUT_Q, QuantParams::new(0.05, -9), QuantParams::new(0.11, 17)] {
            for act in [
                Activation::None,
                Activation::Relu,
                Activation::Relu6,
                Activation::HSwish,
                Activation::HSigmoid,
            ] {
                let bias: Vec<i32> = (0..5).map(|_| i32::from(rng.next_i8()) * 100).collect();
                let ep = Epilogue::uniform(bias.clone(), 0.0037, out_q, act).unwrap();
                for (ch, &b) in bias.iter().enumerate() {
                    let acc: Vec<i32> =
                        (0..61 + ch).map(|_| i32::from(rng.next_i8()) * 977).collect();
                    let mut fused = vec![0i8; acc.len()];
                    ep.apply_row(ch, &acc, &mut fused).unwrap();
                    for (f, &v) in fused.iter().zip(&acc) {
                        let want = reference_tail(v, b, 0.0037, out_q, act);
                        assert_eq!(*f, want, "{act:?}, {out_q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_scalar_matches_row() {
        let ep = Epilogue::uniform(vec![7, -3], 0.01, OUT_Q, Activation::Relu).unwrap();
        assert_eq!(ep.apply(0, 500), reference_tail(500, 7, 0.01, OUT_Q, Activation::Relu));
        assert_eq!(ep.apply(1, -900), reference_tail(-900, -3, 0.01, OUT_Q, Activation::Relu));
    }

    #[test]
    fn saturates_at_i8_limits() {
        let ep = Epilogue::uniform(vec![0], 1.0, OUT_Q, Activation::None).unwrap();
        assert_eq!(ep.apply(0, 1 << 20), 127);
        assert_eq!(ep.apply(0, -(1 << 20)), -128);
    }

    #[test]
    fn rejects_inconsistent_construction() {
        assert!(Epilogue::uniform(vec![], 1.0, OUT_Q, Activation::None).is_err());
    }

    /// A bad scale must return `InvalidParam`.
    fn assert_scale_rejected(bad: f32) {
        let ep = Epilogue::uniform(vec![0], bad, OUT_Q, Activation::None);
        assert!(matches!(ep, Err(TensorError::InvalidParam { .. })), "{bad}");
    }

    #[test]
    fn rejects_nan_scale() {
        assert_scale_rejected(f32::NAN);
    }

    #[test]
    fn rejects_infinite_scale() {
        assert_scale_rejected(f32::INFINITY);
        assert_scale_rejected(f32::NEG_INFINITY);
    }

    #[test]
    fn rejects_zero_scale() {
        assert_scale_rejected(0.0);
        assert_scale_rejected(-0.0);
    }

    #[test]
    fn rejects_negative_scale() {
        assert_scale_rejected(-0.01);
    }

    #[test]
    fn rejects_non_positive_output_scale() {
        for bad in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            // `QuantParams::new` would panic; the fields are public.
            let out_q = QuantParams { scale: bad, zero_point: 0 };
            let uniform = Epilogue::uniform(vec![0], 0.5, out_q, Activation::HSwish);
            assert!(matches!(uniform, Err(TensorError::InvalidParam { .. })), "{bad}");
        }
    }

    #[test]
    fn apply_row_validates_lengths_and_channel() {
        let ep = Epilogue::uniform(vec![0], 1.0, OUT_Q, Activation::None).unwrap();
        let mut dst = [0i8; 2];
        assert!(ep.apply_row(0, &[1, 2, 3], &mut dst).is_err());
        assert!(ep.apply_row(1, &[1, 2], &mut dst).is_err());
    }
}

//! Functional (bit-exact) model of the Dot-Product-Engine array.
//!
//! §4.2.1: SushiAccel computes with fixed-size DPEs of 9 multipliers.
//! Weights stream down rows (kernel parallelism `KP`) and stay stationary;
//! iActs stream through columns (channel parallelism `CP`); an adder tree
//! reduces each row. 3×3 kernels map one-to-one onto a DPE; larger kernels
//! decompose into 3×3 passes; 1×1 kernels flatten channels across the 9
//! multipliers; the Zero-Subtraction stage computes
//! `(iAct − zp_a) · (w − zp_w)` before accumulation.
//!
//! This module *executes* that schedule on real int8 data. Because integer
//! accumulation is associative and the output stage requantizes exactly like
//! the reference, the result equals [`sushi_tensor::ops::conv::conv2d_i8_in`]
//! bit-for-bit — the property the tests pin down.
//!
//! Host-simulation speed is decoupled from the modeled schedule through a
//! [`KernelPolicy`]: under `Auto` (the default) large dense convolutions run
//! the bit-identical im2col + blocked-GEMM fast path from `sushi-tensor`,
//! depthwise convolutions its vectorised depthwise kernel, and only
//! tiny dense convolutions the tiled schedule; `Naive` forces the
//! cycle-faithful tiled schedule everywhere. Shapes are validated by
//! [`Conv2dParams::output_dims`] before the policy is consulted, so the
//! policy can never change the numbers, or decide between an error and a
//! result — only how fast the host computes them.

use sushi_tensor::ops::conv::{conv2d_i8_in, Conv2dParams};
use sushi_tensor::ops::gemm::ConvBackend;
use sushi_tensor::quant::requantize_accumulator;
use sushi_tensor::{Arena, KernelPolicy, PackedConv2d, QuantParams, Shape4, Tensor, TensorError};

use crate::config::DPE_SIZE;

/// A `KP × CP` array of 9-multiplier DPEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpeArray {
    /// Kernel-level parallelism (rows).
    pub kp: usize,
    /// Channel-level parallelism (columns).
    pub cp: usize,
    /// Host-simulation kernel policy (never affects results).
    policy: KernelPolicy,
}

impl DpeArray {
    /// Creates a DPE array with the default [`KernelPolicy::Auto`] host
    /// simulation policy.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(kp: usize, cp: usize) -> Self {
        assert!(kp > 0 && cp > 0, "DPE array dims must be positive");
        Self { kp, cp, policy: KernelPolicy::Auto }
    }

    /// Returns the same array with a different host-simulation policy.
    ///
    /// `Naive` pins the cycle-faithful tiled DPE schedule (the oracle);
    /// `Im2colGemm` forces the GEMM fast path; `Auto` picks per problem
    /// (see [`KernelPolicy::resolve`]).
    #[must_use]
    pub fn with_policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active host-simulation policy.
    #[must_use]
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Quantized convolution executed in the DPE array's tiled schedule,
    /// with caller-owned scratch and optional pre-packed weight panels.
    ///
    /// Supports dense convolutions (any odd kernel) and depthwise
    /// convolutions (`groups == K`, weights shaped `(K, 1, R, S)`). When the
    /// resolved backend is the GEMM fast path and `packed` is given, the
    /// panels are read in place — no weight copy, subtraction or re-pack
    /// happens per query (the subgraph-stationary contract pinned by
    /// `tests/pack_once.rs`). The tiled DPE schedule and the depthwise
    /// kernel read `weights`. The policy can never change the numbers — only
    /// how fast the host computes them — so `packed` must stand for
    /// `weights` under every policy.
    ///
    /// # Errors
    /// Under every policy alike: shape/parameter errors from
    /// [`Conv2dParams::output_dims`]; [`TensorError::InvalidParam`] when
    /// `groups` is neither 1 nor `K` with one channel per group (the tiled
    /// schedule's restriction); a bias of the wrong length; and `packed`
    /// not standing for `weights` (see [`PackedConv2d::check_panels_of`]).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_i8_in(
        &self,
        arena: &mut Arena,
        input: &Tensor<i8>,
        in_q: QuantParams,
        weights: &Tensor<i8>,
        w_q: QuantParams,
        packed: Option<&PackedConv2d>,
        bias: Option<&[i32]>,
        out_q: QuantParams,
        params: &Conv2dParams,
    ) -> Result<Tensor<i8>, TensorError> {
        let ishape = input.shape();
        let wshape = weights.shape();
        let (oh, ow) = params.output_dims(ishape, wshape)?;
        let depthwise = params.groups > 1;
        if depthwise && (params.groups != wshape.n || wshape.c != 1) {
            return Err(TensorError::InvalidParam {
                what: "depthwise requires groups == K and C == 1",
            });
        }
        if let Some(p) = packed {
            p.check_panels_of(wshape, w_q, params.groups)?;
        }
        if let Some(b) = bias {
            if b.len() != wshape.n {
                return Err(TensorError::LengthMismatch { expected: wshape.n, actual: b.len() });
            }
        }

        // Fast host paths: unless the policy resolves to the direct loops,
        // execute the layer through the bit-identical `sushi-tensor` kernel
        // it picks — GEMM against pre-packed panels when the caller
        // installed them, or the vectorised depthwise kernel. The tiled
        // schedule below remains the cycle-faithful oracle.
        if params.backend(ishape, wshape, oh, ow, self.policy) != ConvBackend::Direct {
            return conv2d_i8_in(
                input,
                in_q,
                weights,
                w_q,
                packed,
                bias,
                out_q,
                params,
                self.policy,
                arena,
            );
        }

        let acc_scale = in_q.scale * w_q.scale / out_q.scale;
        let k_total = wshape.n;
        let mut out = Tensor::zeros(Shape4::new(ishape.n, k_total, oh, ow));
        // Output Buffer: in-place int32 accumulation per kernel tile.
        let mut ob = vec![0i32; self.kp * oh * ow];

        for n in 0..ishape.n {
            for k_tile in (0..k_total).step_by(self.kp) {
                let k_hi = (k_tile + self.kp).min(k_total);
                ob.iter_mut().for_each(|v| *v = 0);
                if depthwise {
                    self.depthwise_tile(
                        input, in_q, weights, w_q, params, n, k_tile, k_hi, oh, ow, &mut ob,
                    );
                } else {
                    self.dense_tile(
                        input, in_q, weights, w_q, params, n, k_tile, k_hi, oh, ow, &mut ob,
                    );
                }
                // Output stage: add bias, requantize, emit final oActs.
                for k in k_tile..k_hi {
                    let b = bias.map_or(0, |b| b[k]);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let acc = ob[(k - k_tile) * oh * ow + oy * ow + ox] + b;
                            out.set(
                                n,
                                k,
                                oy,
                                ox,
                                requantize_accumulator(acc, acc_scale, out_q.zero_point),
                            );
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Dense tile: channel tiles of width `CP` stream through columns; each
    /// DPE performs a 9-MAC dot product (one 3×3 window pass, or 9 channels
    /// of a 1×1 kernel).
    #[allow(clippy::too_many_arguments)]
    fn dense_tile(
        &self,
        input: &Tensor<i8>,
        in_q: QuantParams,
        weights: &Tensor<i8>,
        w_q: QuantParams,
        params: &Conv2dParams,
        n: usize,
        k_tile: usize,
        k_hi: usize,
        oh: usize,
        ow: usize,
        ob: &mut [i32],
    ) {
        let ishape = input.shape();
        let wshape = weights.shape();
        let (r, s) = (wshape.h, wshape.w);
        let zp_a = i32::from(in_q.zero_point);
        let zp_w = i32::from(w_q.zero_point);

        if r == 1 && s == 1 {
            // 1x1: flatten channels across the 9 multipliers of each DPE and
            // across CP columns: CP*9 channels per pass.
            let cs = self.cp * DPE_SIZE;
            for c_tile in (0..ishape.c).step_by(cs) {
                let c_hi = (c_tile + cs).min(ishape.c);
                for k in k_tile..k_hi {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = oy * params.stride;
                            let ix = ox * params.stride;
                            let mut acc = 0i32;
                            for c in c_tile..c_hi {
                                let a = i32::from(input.get(n, c, iy, ix)) - zp_a;
                                let w = i32::from(weights.get(k, c, 0, 0)) - zp_w;
                                acc += a * w;
                            }
                            ob[(k - k_tile) * oh * ow + oy * ow + ox] += acc;
                        }
                    }
                }
            }
            return;
        }

        // R×S ≥ 3×3: decompose into 3×3 passes; one channel per column.
        for c_tile in (0..ishape.c).step_by(self.cp) {
            let c_hi = (c_tile + self.cp).min(ishape.c);
            for pr in (0..r).step_by(3) {
                for ps in (0..s).step_by(3) {
                    for k in k_tile..k_hi {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0i32;
                                for c in c_tile..c_hi {
                                    // The 9-MAC dot product of one DPE.
                                    for dy in pr..(pr + 3).min(r) {
                                        let iy = (oy * params.stride + dy) as isize
                                            - params.padding as isize;
                                        if iy < 0 || iy >= ishape.h as isize {
                                            continue;
                                        }
                                        for dx in ps..(ps + 3).min(s) {
                                            let ix = (ox * params.stride + dx) as isize
                                                - params.padding as isize;
                                            if ix < 0 || ix >= ishape.w as isize {
                                                continue;
                                            }
                                            let a = i32::from(input.get(
                                                n,
                                                c,
                                                iy as usize,
                                                ix as usize,
                                            )) - zp_a;
                                            let w = i32::from(weights.get(k, c, dy, dx)) - zp_w;
                                            acc += a * w;
                                        }
                                    }
                                }
                                ob[(k - k_tile) * oh * ow + oy * ow + ox] += acc;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Depthwise tile: kernel k reads only channel k; columns idle.
    #[allow(clippy::too_many_arguments)]
    fn depthwise_tile(
        &self,
        input: &Tensor<i8>,
        in_q: QuantParams,
        weights: &Tensor<i8>,
        w_q: QuantParams,
        params: &Conv2dParams,
        n: usize,
        k_tile: usize,
        k_hi: usize,
        oh: usize,
        ow: usize,
        ob: &mut [i32],
    ) {
        let ishape = input.shape();
        let wshape = weights.shape();
        let (r, s) = (wshape.h, wshape.w);
        let zp_a = i32::from(in_q.zero_point);
        let zp_w = i32::from(w_q.zero_point);
        for k in k_tile..k_hi {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i32;
                    for dy in 0..r {
                        let iy = (oy * params.stride + dy) as isize - params.padding as isize;
                        if iy < 0 || iy >= ishape.h as isize {
                            continue;
                        }
                        for dx in 0..s {
                            let ix = (ox * params.stride + dx) as isize - params.padding as isize;
                            if ix < 0 || ix >= ishape.w as isize {
                                continue;
                            }
                            let a = i32::from(input.get(n, k, iy as usize, ix as usize)) - zp_a;
                            let w = i32::from(weights.get(k, 0, dy, dx)) - zp_w;
                            acc += a * w;
                        }
                    }
                    ob[(k - k_tile) * oh * ow + oy * ow + ox] += acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_tensor::{DetRng, PackLayout};

    fn rand_i8(shape: Shape4, seed: u64) -> Tensor<i8> {
        let mut rng = DetRng::new(seed);
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect()).unwrap()
    }

    /// [`DpeArray::conv2d_i8_in`] on raw weights with a private arena.
    #[allow(clippy::too_many_arguments)]
    fn dpe_conv(
        arr: DpeArray,
        x: &Tensor<i8>,
        in_q: QuantParams,
        w: &Tensor<i8>,
        w_q: QuantParams,
        bias: Option<&[i32]>,
        out_q: QuantParams,
        p: &Conv2dParams,
    ) -> Result<Tensor<i8>, TensorError> {
        arr.conv2d_i8_in(&mut Arena::new(), x, in_q, w, w_q, None, bias, out_q, p)
    }

    fn check_equal(
        arr: &DpeArray,
        input: Shape4,
        weights: Shape4,
        params: &Conv2dParams,
        bias: bool,
        seed: u64,
    ) {
        let x = rand_i8(input, seed);
        let w = rand_i8(weights, seed + 1);
        let in_q = QuantParams::new(0.05, 7);
        let w_q = QuantParams::new(0.02, -3);
        let out_q = QuantParams::new(0.3, 5);
        let b: Option<Vec<i32>> = bias.then(|| {
            let mut rng = DetRng::new(seed + 2);
            (0..weights.n).map(|_| (rng.next_u64() % 1000) as i32 - 500).collect()
        });
        let naive = KernelPolicy::Naive;
        let reference = conv2d_i8_in(
            &x,
            in_q,
            &w,
            w_q,
            None,
            b.as_deref(),
            out_q,
            params,
            naive,
            &mut Arena::new(),
        )
        .unwrap();
        // The cycle-faithful tiled schedule, the GEMM fast path and whatever
        // `Auto` picks must all reproduce the naive oracle bit-for-bit.
        for policy in [naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
            let arr = arr.with_policy(policy);
            let out = dpe_conv(arr, &x, in_q, &w, w_q, b.as_deref(), out_q, params).unwrap();
            assert_eq!(reference, out, "DPE under {policy} diverged from reference");
        }
    }

    #[test]
    fn dense_3x3_matches_reference_bit_exactly() {
        let arr = DpeArray::new(4, 3);
        check_equal(
            &arr,
            Shape4::new(1, 7, 9, 9),
            Shape4::new(10, 7, 3, 3),
            &Conv2dParams::new(3, 3).with_padding(1),
            true,
            10,
        );
    }

    #[test]
    fn dense_1x1_matches_reference_bit_exactly() {
        let arr = DpeArray::new(4, 2);
        check_equal(
            &arr,
            Shape4::new(1, 40, 5, 5),
            Shape4::new(12, 40, 1, 1),
            &Conv2dParams::new(1, 1),
            false,
            20,
        );
    }

    #[test]
    fn dense_5x5_decomposition_matches_reference() {
        let arr = DpeArray::new(2, 2);
        check_equal(
            &arr,
            Shape4::new(1, 3, 11, 11),
            Shape4::new(5, 3, 5, 5),
            &Conv2dParams::new(5, 5).with_padding(2),
            true,
            30,
        );
    }

    #[test]
    fn dense_7x7_stride_2_matches_reference() {
        let arr = DpeArray::new(3, 3);
        check_equal(
            &arr,
            Shape4::new(1, 3, 16, 16),
            Shape4::new(6, 3, 7, 7),
            &Conv2dParams::new(7, 7).with_stride(2).with_padding(3),
            false,
            40,
        );
    }

    #[test]
    fn depthwise_matches_reference_bit_exactly() {
        let arr = DpeArray::new(4, 4);
        check_equal(
            &arr,
            Shape4::new(1, 10, 8, 8),
            Shape4::new(10, 1, 3, 3),
            &Conv2dParams::new(3, 3).with_padding(1).with_groups(10),
            true,
            50,
        );
    }

    #[test]
    fn depthwise_5x5_stride2_matches_reference() {
        let arr = DpeArray::new(8, 2);
        check_equal(
            &arr,
            Shape4::new(1, 12, 9, 9),
            Shape4::new(12, 1, 5, 5),
            &Conv2dParams::new(5, 5).with_stride(2).with_padding(2).with_groups(12),
            false,
            60,
        );
    }

    #[test]
    fn result_is_independent_of_array_geometry() {
        // Different KP/CP change the schedule, never the numbers.
        let x = rand_i8(Shape4::new(1, 9, 7, 7), 70);
        let w = rand_i8(Shape4::new(11, 9, 3, 3), 71);
        let q = QuantParams::new(0.04, 0);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let a = dpe_conv(DpeArray::new(1, 1), &x, q, &w, q, None, q, &p).unwrap();
        let b = dpe_conv(DpeArray::new(16, 18), &x, q, &w, q, None, q, &p).unwrap();
        let c = dpe_conv(DpeArray::new(3, 7), &x, q, &w, q, None, q, &p).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn zero_subtraction_handles_nonzero_zero_points() {
        // Already exercised via check_equal's zp=7/-3; pin the padding case:
        // padded positions must contribute exactly zero after ZS.
        let arr = DpeArray::new(2, 2);
        let x = Tensor::filled(Shape4::new(1, 1, 3, 3), 7i8); // == zp -> real value 0
        let w = rand_i8(Shape4::new(1, 1, 3, 3), 80);
        let in_q = QuantParams::new(0.05, 7);
        let w_q = QuantParams::new(0.02, 0);
        let out_q = QuantParams::new(0.1, 0);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let out = dpe_conv(arr, &x, in_q, &w, w_q, None, out_q, &p).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0), "all-zero input must give zero output");
    }

    #[test]
    fn policy_never_changes_results() {
        // The host-simulation policy is a pure speed knob; all three
        // settings must produce the same bytes, above and below the Auto
        // problem-size threshold.
        let q = QuantParams::new(0.03, -2);
        for (ishape, wshape, seed) in [
            (Shape4::new(1, 16, 12, 12), Shape4::new(24, 16, 3, 3), 100), // above threshold
            (Shape4::new(1, 2, 5, 5), Shape4::new(2, 2, 3, 3), 102),      // below threshold
        ] {
            let x = rand_i8(ishape, seed);
            let w = rand_i8(wshape, seed + 1);
            let p = Conv2dParams::new(3, 3).with_padding(1);
            let arr = DpeArray::new(4, 4);
            let [a, b, c] = [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto]
                .map(|policy| {
                    dpe_conv(arr.with_policy(policy), &x, q, &w, q, None, q, &p).unwrap()
                });
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn prepacked_panels_never_change_results() {
        // Pre-packed weights are a pure speed knob, like the policy: the
        // same bytes must come out with and without them, under every
        // policy (Naive resolves to Direct and simply ignores the panels).
        let x = rand_i8(Shape4::new(1, 8, 10, 10), 200);
        let w = rand_i8(Shape4::new(12, 8, 3, 3), 201);
        let in_q = QuantParams::new(0.05, 4);
        let w_q = QuantParams::new(0.02, -6);
        let out_q = QuantParams::new(0.3, 1);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let arr = DpeArray::new(4, 4);
        let plain = dpe_conv(arr, &x, in_q, &w, w_q, None, out_q, &p).unwrap();
        let packed = PackedConv2d::pack_with_layout(&w, w_q, &p, PackLayout::Panel).unwrap();
        let mut arena = Arena::new();
        for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
            let out = arr
                .with_policy(policy)
                .conv2d_i8_in(&mut arena, &x, in_q, &w, w_q, Some(&packed), None, out_q, &p)
                .unwrap();
            assert_eq!(plain, out, "prepacked panels changed results under {policy}");
        }
    }

    #[test]
    fn rejects_depthwise_with_bad_groups() {
        let arr = DpeArray::new(2, 2);
        let x = rand_i8(Shape4::new(1, 4, 4, 4), 90);
        let w = rand_i8(Shape4::new(4, 2, 3, 3), 91);
        let q = QuantParams::default();
        let p = Conv2dParams::new(3, 3).with_groups(4);
        assert!(dpe_conv(arr, &x, q, &w, q, None, q, &p).is_err());
    }

    /// Invalid shapes are errors under every policy: the policy picks how
    /// the host computes a result, never whether there is one.
    #[test]
    fn invalid_shapes_are_errors_under_every_policy() {
        let p3 = Conv2dParams::new(3, 3).with_padding(1);
        let s = Shape4::new;
        // (what, input, weights, params)
        let cases = [
            // A depthwise conv whose input has more channels than groups.
            ("input channels > groups", s(1, 4, 5, 5), s(2, 1, 3, 3), p3.with_groups(2)),
            // Weights whose spatial dims differ from the params' kernel.
            ("kernel dims", s(1, 3, 6, 6), s(4, 3, 5, 5), p3),
            ("depthwise kernel dims", s(1, 4, 6, 6), s(4, 1, 5, 5), p3.with_groups(4)),
            ("zero stride", s(1, 3, 6, 6), s(4, 3, 3, 3), p3.with_stride(0)),
            ("input channels", s(1, 3, 6, 6), s(4, 2, 3, 3), p3),
            ("empty output", s(1, 2, 2, 2), s(2, 2, 5, 5), Conv2dParams::new(5, 5)),
            ("grouped, not depthwise", s(1, 8, 6, 6), s(4, 2, 3, 3), p3.with_groups(4)),
        ];
        let q = QuantParams::new(0.05, 1);
        for (what, ishape, wshape, p) in cases {
            let (x, w) = (rand_i8(ishape, 95), rand_i8(wshape, 96));
            for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
                let out =
                    dpe_conv(DpeArray::new(2, 2).with_policy(policy), &x, q, &w, q, None, q, &p);
                assert!(out.is_err(), "{what}: {policy} returned Ok");
            }
        }
    }

    /// Install-time panels must stand for the raw weights they replace: the
    /// tiled schedule reads `weights` and the GEMM path reads the panels, so
    /// panels of other weights would let the policy change the numbers.
    /// Each mismatch is an error under every policy instead.
    #[test]
    fn mismatched_panels_are_errors_under_every_policy() {
        let x = rand_i8(Shape4::new(1, 8, 10, 10), 210);
        let w = rand_i8(Shape4::new(12, 8, 3, 3), 211);
        let (w_q, q) = (QuantParams::new(0.02, -6), QuantParams::new(0.05, 4));
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let pack = |w: &Tensor<i8>, w_q, p: Conv2dParams, layout| {
            PackedConv2d::pack_with_layout(w, w_q, &p, layout).unwrap()
        };
        let mismatched = [
            pack(&rand_i8(Shape4::new(12, 4, 3, 3), 212), w_q, p, PackLayout::Panel), // shape
            pack(&w, QuantParams::new(0.03, -6), p, PackLayout::Panel),               // w_q
            pack(&w, w_q, p.with_groups(2), PackLayout::Panel),                       // groups
            pack(&w, w_q, p, PackLayout::KPair),                                      // layout
        ];
        let arr = DpeArray::new(4, 4);
        for packed in &mismatched {
            for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
                let out = arr.with_policy(policy).conv2d_i8_in(
                    &mut Arena::new(),
                    &x,
                    q,
                    &w,
                    w_q,
                    Some(packed),
                    None,
                    q,
                    &p,
                );
                assert!(out.is_err(), "{policy} accepted panels that are not the weights'");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_array_rejected() {
        let _ = DpeArray::new(0, 4);
    }
}

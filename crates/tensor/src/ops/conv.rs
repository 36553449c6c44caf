//! 2-D int8-quantized convolution (zero-point aware).
//!
//! Two entry points, both int8:
//!
//! * [`conv2d_i8_in`] — the unfused conv: bias + requantization, with the
//!   backend picked by a [`KernelPolicy`];
//! * [`conv2d_i8_fused`] — the IR-lowered conv over k-pair panels with a
//!   typed [`Epilogue`].
//!
//! Both run one GEMM conv body: patch-matrix lowering
//! ([`crate::ops::im2col`], skipped for 1×1/stride-1/unpadded dense convs,
//! whose patch matrix is the input) plus the k-pair packed GEMM
//! ([`crate::ops::gemm`]), whose last K block hands each finished tile row
//! to the entry point's output stage: the epilogue for the fused conv, a
//! bias + requantize tail for the unfused one.
//!
//! Three interchangeable backends sit behind [`KernelPolicy`]:
//!
//! * **Direct** — the original loop nests, kept as the correctness oracle.
//!   Their padding clamp is hoisted: valid kernel ranges are precomputed per
//!   output coordinate, so the innermost loops run branch-free over
//!   contiguous rows.
//! * **Im2colGemm** — the GEMM conv body. All scratch (patch matrix, packed
//!   patches, partial sums) lives in a caller-owned [`Arena`] reused across
//!   calls, so steady-state serving performs no heap allocation for
//!   scratch. A large conv runs its prologue (im2col by input-channel
//!   ranges, `pack_b` by runs of column panels) and then its GEMM row
//!   blocks on the arena's worker pool. Weights are packed once into a
//!   [`PackedConv2d`] and reused across every query — the software
//!   analogue of the paper's SubGraph-Stationary weight reuse; a call
//!   given none packs its own.
//! * **Depthwise** — what `Auto` runs for depthwise convs. Each input
//!   channel is copied once, zero-point-subtracted, into a zero-bordered
//!   polyphase plane in the arena (a slice copy at stride 1, one
//!   deinterleaving pass at stride 2); every kernel tap is then one
//!   contiguous multiply-add over all output pixels, which the compiler
//!   vectorises (AVX2 when detected at runtime). Large problems split their
//!   `(batch item, channel)` planes across the arena's worker pool, each
//!   part with its own cache-line-aligned arena region.
//!
//! The results are bit-identical across backends: every backend sums the
//! same integer products exactly (`docs/KERNELS.md` says why the depthwise
//! kernel's `f32` lanes are exact in any order), and integer addition is
//! associative.

use std::ops::Range;

use crate::arena::Arena;
use crate::error::TensorError;
use crate::ops::epilogue::Epilogue;
use crate::ops::gemm::{
    gemm_i8_pairs_fused, simd_kernels_active, worker_count, ConvBackend, KernelPolicy, KC,
};
use crate::ops::im2col::im2col_rows;
use crate::ops::pack::{pack_b_panels, packed_b_pairs_len, PackLayout, PackedConv2d, NR};
use crate::quant::{requantize_accumulator, requantize_row, QuantParams};
use crate::shape::{conv_out_dim, Shape4};
use crate::tensor::Tensor;

/// Convolution hyper-parameters.
///
/// `groups == 1` is a dense convolution; `groups == c_in == c_out` is a
/// depthwise convolution (MobileNetV3's dominant op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Kernel height `R`.
    pub kernel_h: usize,
    /// Kernel width `S`.
    pub kernel_w: usize,
    /// Stride (same in both spatial dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Number of channel groups.
    pub groups: usize,
}

impl Conv2dParams {
    /// Creates parameters with stride 1, no padding, one group.
    #[must_use]
    pub const fn new(kernel_h: usize, kernel_w: usize) -> Self {
        Self { kernel_h, kernel_w, stride: 1, padding: 0, groups: 1 }
    }

    /// Sets the stride.
    #[must_use]
    pub const fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the padding.
    #[must_use]
    pub const fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the group count.
    #[must_use]
    pub const fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Checks that `input` and `weights` (`(K, C/groups, R, S)`) form a
    /// valid convolution under these parameters and returns the output
    /// spatial dims `(oh, ow)`. Every conv entry point, including
    /// `sushi-accel`'s `DpeArray`, validates through this one function, so
    /// a policy can never decide between an error and a result.
    ///
    /// # Errors
    /// [`TensorError::InvalidParam`] for a zero stride or group count, or
    /// channels not divisible by `groups`; [`TensorError::ShapeMismatch`]
    /// when the weights' channels per group or spatial dims disagree;
    /// [`TensorError::EmptyOutput`] when no output pixel remains.
    pub fn output_dims(
        &self,
        input: Shape4,
        weights: Shape4,
    ) -> Result<(usize, usize), TensorError> {
        if self.stride == 0 {
            return Err(TensorError::InvalidParam { what: "stride must be nonzero" });
        }
        if self.groups == 0 {
            return Err(TensorError::InvalidParam { what: "groups must be nonzero" });
        }
        if !input.c.is_multiple_of(self.groups) || !weights.n.is_multiple_of(self.groups) {
            return Err(TensorError::InvalidParam { what: "channels not divisible by groups" });
        }
        if weights.c != input.c / self.groups {
            return Err(TensorError::ShapeMismatch {
                what: "input channels per group",
                lhs: input,
                rhs: weights,
            });
        }
        if weights.h != self.kernel_h || weights.w != self.kernel_w {
            return Err(TensorError::ShapeMismatch {
                what: "kernel spatial dims",
                lhs: input,
                rhs: weights,
            });
        }
        let oh = conv_out_dim(input.h, self.kernel_h, self.stride, self.padding);
        let ow = conv_out_dim(input.w, self.kernel_w, self.stride, self.padding);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => Ok((oh, ow)),
            _ => Err(TensorError::EmptyOutput { input }),
        }
    }

    /// Resolves the backend `policy` picks for this problem (`oh`/`ow` are
    /// the validated output dims). The single source of the `Auto`
    /// heuristic — every conv entry point, including `sushi-accel`'s
    /// `DpeArray`, must route through it so policies resolve identically
    /// across the stack. A depthwise conv with more than 256 taps (`R·S`)
    /// resolves like a dense one: the depthwise kernel's sums are exact only
    /// up to that many products.
    #[must_use]
    pub fn backend(
        &self,
        input: Shape4,
        weights: Shape4,
        oh: usize,
        ow: usize,
        policy: KernelPolicy,
    ) -> ConvBackend {
        let macs = input.n * weights.n * weights.c * weights.h * weights.w * oh * ow;
        let depthwise =
            weights.c == 1 && self.groups > 1 && weights.h * weights.w <= DEPTHWISE_MAX_TAPS;
        policy.resolve(macs, depthwise)
    }
}

/// Valid kernel coordinates `r_lo..r_hi` for output coordinate `o`: exactly
/// those `r` with `0 <= o*stride + r - padding < in_len`. Hoisted out of the
/// MAC loops so the direct backend never clamps per element.
pub(crate) fn kernel_range(
    o: usize,
    stride: usize,
    padding: usize,
    in_len: usize,
    k_len: usize,
) -> (usize, usize) {
    let base = o * stride;
    let lo = padding.saturating_sub(base).min(k_len);
    let hi = (in_len + padding).saturating_sub(base).min(k_len);
    (lo, hi.max(lo))
}

pub(crate) fn kernel_ranges(
    o_len: usize,
    stride: usize,
    padding: usize,
    in_len: usize,
    k_len: usize,
) -> Vec<(usize, usize)> {
    (0..o_len).map(|o| kernel_range(o, stride, padding, in_len, k_len)).collect()
}

/// Quantized int8 convolution: the one unfused entry point.
///
/// Implements the accelerator's Zero-Subtraction (ZS) semantics:
/// `acc = Σ (iAct − zp_in) · (w − zp_w)` accumulated in `i32`, then
/// requantized with `in.scale · w.scale / out.scale` and offset by the output
/// zero point. Padding contributes *zero-valued real* input, i.e. the padded
/// quantized activation equals `zp_in` and vanishes after subtraction.
///
/// `weights` has shape `(K, C/groups, R, S)`; `bias`, if given, has length
/// `K`. `policy` picks the backend ([`KernelPolicy::Auto`] resolves per
/// problem) and the result is **bit-identical** across backends. The GEMM
/// backend takes its scratch from `arena`, and reads `packed` — the
/// weights' install-time panels, tagged [`PackLayout::Panel`] — in place
/// when given; otherwise it packs `weights` into a [`PackedConv2d`] per
/// call, counted in [`Arena::weight_packs`]. The direct loops and
/// the depthwise kernel read `weights`; the depthwise kernel also takes its
/// input planes and accumulator from `arena`.
///
/// # Errors
/// Returns an error on shape/parameter mismatch (see [`Conv2dParams`]), or
/// when `packed` does not stand for `weights` under `w_q` and `params` (see
/// [`PackedConv2d::check_panels_of`]) — under every policy, so the policy
/// can never change the numbers.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_i8_in(
    input: &Tensor<i8>,
    in_q: QuantParams,
    weights: &Tensor<i8>,
    w_q: QuantParams,
    packed: Option<&PackedConv2d>,
    bias: Option<&[i32]>,
    out_q: QuantParams,
    params: &Conv2dParams,
    policy: KernelPolicy,
    arena: &mut Arena,
) -> Result<Tensor<i8>, TensorError> {
    let ishape = input.shape();
    let wshape = weights.shape();
    let (oh, ow) = params.output_dims(ishape, wshape)?;
    if let Some(p) = packed {
        p.check_panels_of(wshape, w_q, params.groups)?;
    }
    if let Some(b) = bias {
        if b.len() != wshape.n {
            return Err(TensorError::LengthMismatch { expected: wshape.n, actual: b.len() });
        }
    }
    match params.backend(ishape, wshape, oh, ow, policy) {
        ConvBackend::Direct => {
            Ok(conv2d_i8_direct(input, in_q, weights, w_q, bias, out_q, params, oh, ow))
        }
        ConvBackend::Im2colGemm => {
            let per_call;
            let packed = match packed {
                Some(p) => p,
                None => {
                    per_call =
                        PackedConv2d::pack_with_layout(weights, w_q, params, PackLayout::Panel)?;
                    arena.count_weight_pack();
                    &per_call
                }
            };
            let acc_scale = in_q.scale * w_q.scale / out_q.scale;
            Ok(gemm_conv(input, in_q, packed, params, (oh, ow), arena, &|k, sums, dst| {
                let bias_v = bias.map_or(0, |b| b[k]);
                let sums = &sums[..dst.len()];
                requantize_row(sums, bias_v, acc_scale, out_q.zero_point, i8::MIN, dst);
            }))
        }
        ConvBackend::Depthwise => {
            let simd = simd_kernels_active();
            let out = (oh, ow);
            Ok(conv2d_i8_depthwise(
                input, in_q, weights, w_q, bias, out_q, params, out, arena, simd,
            ))
        }
    }
}

/// Fused quantized convolution: k-pair packed weights, the `pmaddwd` pair
/// microkernel, and a typed [`Epilogue`] (bias + requantization + activation)
/// applied to each register tile as the last K block finishes it, inside
/// the GEMM's worker threads. The tile goes straight out as `i8`; when the
/// reduction fits one K block no `i32` accumulator is requested at all.
///
/// This is the IR-lowered datapath: `sushi-ir`'s layout pass sends a
/// conv here at cache-install time, the install bakes its bias,
/// requantization and activation into the epilogue and packs weights in
/// [`PackLayout::KPair`]. It runs the same
/// GEMM conv body as [`conv2d_i8_in`]'s GEMM backend, 1×1 im2col skip
/// included; only the tail differs.
///
/// Output is bit-identical to [`conv2d_i8_in`] + reference activation
/// (pinned by the cross-crate fusion proptests).
///
/// # Errors
/// Returns an error on shape/parameter mismatch, when `packed` is not in
/// [`PackLayout::KPair`], or when the epilogue's channel count disagrees with
/// the packed weights.
pub fn conv2d_i8_fused(
    input: &Tensor<i8>,
    in_q: QuantParams,
    packed: &PackedConv2d,
    epilogue: &Epilogue,
    params: &Conv2dParams,
    arena: &mut Arena,
) -> Result<Tensor<i8>, TensorError> {
    let ishape = input.shape();
    let wshape = packed.wshape();
    let (oh, ow) = params.output_dims(ishape, wshape)?;
    if params.groups != packed.groups() {
        return Err(TensorError::InvalidParam { what: "packed weights built for other groups" });
    }
    if packed.layout() != PackLayout::KPair {
        return Err(TensorError::InvalidParam {
            what: "fused conv requires k-pair packed weights",
        });
    }
    if epilogue.channels() != wshape.n {
        return Err(TensorError::LengthMismatch {
            expected: wshape.n,
            actual: epilogue.channels(),
        });
    }
    Ok(gemm_conv(input, in_q, packed, params, (oh, ow), arena, &|k, sums, dst| {
        epilogue.finish_tile_row(k, sums, dst);
    }))
}

/// Prologues (im2col and `pack_b`) of a patch matrix of at least this many
/// cells (`k·n`) split across the arena's pool; smaller ones run on the
/// calling thread. See `docs/KERNELS.md` for the measurement.
const PROLOGUE_SPLIT_MIN: usize = 1 << 16;

/// The one GEMM conv body behind both entry points, shape checks already
/// done: per `(group, batch item)` the patch matrix is packed as B and
/// multiplied by the group's weight panels, and every finished register
/// tile row of output channel `k` goes to `finish(k, sums, dst)`, which
/// writes its `i8` outputs (see [`gemm_i8_pairs_fused`]).
///
/// Above [`PROLOGUE_SPLIT_MIN`] the prologue runs on the arena's pool as
/// two calls, im2col then `pack_b`: im2col's parts are input-channel
/// ranges, each one contiguous block of patch rows, and `pack_b`'s parts
/// runs of whole column panels, so every byte is written by exactly one
/// part.
fn gemm_conv<F: Fn(usize, &[i32; NR], &mut [i8]) + Sync>(
    input: &Tensor<i8>,
    in_q: QuantParams,
    packed: &PackedConv2d,
    params: &Conv2dParams,
    (oh, ow): (usize, usize),
    arena: &mut Arena,
    finish: &F,
) -> Tensor<i8> {
    let ishape = input.shape();
    let wshape = packed.wshape();
    let k_total = wshape.n;
    let cg = wshape.c;
    let kg = k_total / params.groups;
    let kdim = cg * params.kernel_h * params.kernel_w;
    let npix = oh * ow;
    let chw = ishape.c * ishape.h * ishape.w;
    // A 1×1/stride-1/unpadded dense conv's patch matrix is exactly the
    // input batch slice: pack B straight from the input, no im2col copy.
    let direct_b = params.kernel_h == 1
        && params.kernel_w == 1
        && params.stride == 1
        && params.padding == 0
        && params.groups == 1;
    let mut out = Tensor::zeros(Shape4::new(ishape.n, k_total, oh, ow));
    // A reduction that fits one K block (every MobileNetV3 1×1) needs no
    // `i32` scratch: each register tile is final when its block ends.
    let partial = if kdim > KC { kg * npix } else { 0 };
    let (patches, pb, partial, pool) = arena.i8_conv(
        if direct_b { 0 } else { kdim * npix },
        packed_b_pairs_len(kdim, npix),
        partial,
    );
    let split = if kdim * npix >= PROLOGUE_SPLIT_MIN { pool.width() } else { 1 };
    for g in 0..params.groups {
        let pa = packed.group(g);
        let tail = |kk, sums: &[i32; NR], dst: &mut [i8]| finish(g * kg + kk, sums, dst);
        for n in 0..ishape.n {
            let bsrc: &[i8] = if direct_b {
                &input.as_slice()[n * chw..(n + 1) * chw]
            } else {
                // Padding cells are written as the input zero point so the
                // pack-time Zero-Subtraction turns them into literal zeros.
                // Each part writes the patch rows of one channel range.
                let rows = cg.div_ceil(split) * params.kernel_h * params.kernel_w * npix;
                let mut parts: Vec<_> = patches.chunks_mut(rows).enumerate().collect();
                pool.run(&mut parts, |(i, dst)| {
                    let c0 = g * cg + *i * cg.div_ceil(split);
                    im2col_rows(input, n, c0, params, oh, ow, in_q.zero_point, dst);
                });
                patches
            };
            // Each part packs one run of whole column panels.
            let panels = npix.div_ceil(NR).div_ceil(split);
            let len = panels * kdim.div_ceil(2) * NR * 2;
            let mut parts: Vec<_> = pb.chunks_mut(len).enumerate().collect();
            pool.run(&mut parts, |(i, dst)| {
                pack_b_panels(dst, bsrc, in_q.zero_point, kdim, npix, *i * panels);
            });
            // Group `g`'s channels of batch item `n` are `kg` contiguous
            // output rows: the GEMM's `kg × npix` result, in place.
            let base = (n * k_total + g * kg) * npix;
            let rows = &mut out.as_mut_slice()[base..base + kg * npix];
            gemm_i8_pairs_fused(pool, kg, kdim, npix, pa, pb, partial, rows, &tail);
        }
    }
    out
}

/// Direct-loop oracle for the quantized path: shape checks already done.
#[allow(clippy::too_many_arguments)]
fn conv2d_i8_direct(
    input: &Tensor<i8>,
    in_q: QuantParams,
    weights: &Tensor<i8>,
    w_q: QuantParams,
    bias: Option<&[i32]>,
    out_q: QuantParams,
    params: &Conv2dParams,
    oh: usize,
    ow: usize,
) -> Tensor<i8> {
    let ishape = input.shape();
    let wshape = weights.shape();
    let (stride, padding) = (params.stride, params.padding);
    let k_total = wshape.n;
    let cg = wshape.c;
    let kg = k_total / params.groups;
    let acc_scale = in_q.scale * w_q.scale / out_q.scale;
    let zp_a = i32::from(in_q.zero_point);
    let zp_w = i32::from(w_q.zero_point);
    let mut out = Tensor::zeros(Shape4::new(ishape.n, k_total, oh, ow));
    let ry_ranges = kernel_ranges(oh, stride, padding, ishape.h, params.kernel_h);
    let rx_ranges = kernel_ranges(ow, stride, padding, ishape.w, params.kernel_w);

    for n in 0..ishape.n {
        for k in 0..k_total {
            let g = k / kg;
            let bias_v = bias.map_or(0, |b| b[k]);
            for (oy, &(ry_lo, ry_hi)) in ry_ranges.iter().enumerate() {
                let orow = out.row_mut(n, k, oy);
                for (ox, o) in orow.iter_mut().enumerate() {
                    let (rx_lo, rx_hi) = rx_ranges[ox];
                    let mut acc: i32 = bias_v;
                    for cc in 0..cg {
                        let c = g * cg + cc;
                        for ry in ry_lo..ry_hi {
                            let irow = input.row(n, c, oy * stride + ry - padding);
                            let wrow = weights.row(k, cc, ry);
                            if stride == 1 && rx_lo < rx_hi {
                                let ix0 = ox + rx_lo - padding;
                                let iv = &irow[ix0..ix0 + (rx_hi - rx_lo)];
                                for (x, w) in iv.iter().zip(&wrow[rx_lo..rx_hi]) {
                                    acc += (i32::from(*x) - zp_a) * (i32::from(*w) - zp_w);
                                }
                            } else {
                                for rx in rx_lo..rx_hi {
                                    let x = i32::from(irow[ox * stride + rx - padding]) - zp_a;
                                    acc += x * (i32::from(wrow[rx]) - zp_w);
                                }
                            }
                        }
                    }
                    *o = requantize_accumulator(acc, acc_scale, out_q.zero_point);
                }
            }
        }
    }
    out
}

/// Depthwise convs with more taps than this do not run the depthwise
/// kernel: its `f32` sums are exact only up to this many products (see
/// [`conv2d_i8_depthwise`]). Their reduction is deep enough for GEMM.
const DEPTHWISE_MAX_TAPS: usize = 256;

/// Output pixels one block of the tap loop keeps in registers across every
/// tap: eight SSE2 registers on the portable path, eight AVX2 registers on
/// the dispatched one. The accumulator is padded to whole blocks of the
/// larger size, and a block of zeros after the planes keeps the last
/// block's reads in bounds.
const PORTABLE_BLOCK: usize = 32;
const AVX2_BLOCK: usize = 64;

/// Depthwise backend (`C/groups == 1`, any channel multiplier `K/groups`,
/// at most [`DEPTHWISE_MAX_TAPS`] taps): shape checks already done.
///
/// The work is one independent problem per flattened `(batch item, input
/// channel)` plane `i = n·groups + c`, whose `kg = K/groups` output channels
/// are the contiguous `out[i·kg·oh·ow..][..kg·oh·ow]`. Under the GEMM's
/// worker policy (`worker_count`), problems of at least
/// [`PARALLEL_MIN`](crate::ops::gemm::PARALLEL_MIN) MACs split the planes
/// into contiguous runs, one per participant of the arena's worker pool
/// (the caller among them); each run owns its output and its own
/// cache-line-aligned region of the arena's `f32` scratch, so the runs
/// share no written cache line.
///
/// Per plane the padded input is written once, minus its zero point, into
/// scratch whose padding cells stay zero, so no tap ever clamps. The layout
/// is polyphase: phase `(y % stride, x % stride)` holds padded pixel
/// `(y, x)` at `(y / stride, x / stride)`, in rows of pitch `pw`. At stride
/// 1 each input row is one contiguous copy; at stride 2 one pass
/// deinterleaves it into its two phases. Tap `(ry, rx)` of output
/// `(oy, ox)` then reads its phase at `(oy + ry / stride, ox + rx / stride)`,
/// so at any stride one tap is one contiguous multiply-add over every output
/// pixel at once. The accumulator uses the same pitch, and the tap loop
/// keeps one block of it in registers while it runs through every tap; its
/// columns `ow..pw` are computed and discarded when the plane's rows are
/// packed to pitch `ow` and requantized in one pass.
///
/// The arithmetic runs in `f32` lanes, which vectorise on every x86-64
/// (the baseline has no packed 32-bit integer multiply; AVX2, detected at
/// runtime, doubles the lane count), and is exact: `x − zp_a` and
/// `w − zp_w` are integers in `[−255, 255]`, each product an integer of
/// magnitude ≤ 255², and a sum of at most `DEPTHWISE_MAX_TAPS` of them
/// stays below 2²⁴, where every integer is an `f32`. So no tap order, lane
/// width or split changes a sum. The finished sum converts back to `i32`
/// exactly; the bias is added there, and the plane is requantized as in
/// the other backends. `simd` picks the AVX2 build of the worker body
/// (callers pass `simd_kernels_active()`); both builds give the same bytes.
#[allow(clippy::too_many_arguments)]
fn conv2d_i8_depthwise(
    input: &Tensor<i8>,
    in_q: QuantParams,
    weights: &Tensor<i8>,
    w_q: QuantParams,
    bias: Option<&[i32]>,
    out_q: QuantParams,
    params: &Conv2dParams,
    (oh, ow): (usize, usize),
    arena: &mut Arena,
    simd: bool,
) -> Tensor<i8> {
    let ishape = input.shape();
    let k_total = weights.shape().n;
    let (st, pad) = (params.stride, params.padding);
    let pw = (ishape.w + 2 * pad).div_ceil(st);
    let plan = &Depthwise {
        input: input.as_slice(),
        weights: weights.as_slice(),
        bias,
        groups: params.groups,
        kg: k_total / params.groups,
        in_hw: (ishape.h, ishape.w),
        kernel: (params.kernel_h, params.kernel_w),
        st,
        pad,
        pw,
        phase: (ishape.h + 2 * pad).div_ceil(st) * pw,
        out_hw: (oh, ow),
        acc_len: ((oh - 1) * pw + ow).next_multiple_of(AVX2_BLOCK),
        zp_a: f32::from(in_q.zero_point),
        zp_w: f32::from(w_q.zero_point),
        scale: in_q.scale * w_q.scale / out_q.scale,
        zp_out: out_q.zero_point,
    };
    let planes = ishape.n * params.groups;
    let macs = ishape.n * k_total * params.kernel_h * params.kernel_w * oh * ow;
    let workers = worker_count(macs, planes, arena.pool().width());
    let per = planes.div_ceil(workers);
    let mut out = Tensor::zeros(Shape4::new(ishape.n, k_total, oh, ow));
    let outs = out.as_mut_slice().chunks_mut(per * plan.kg * oh * ow);
    let (scratch, pool) = arena.f32_depthwise(workers, plan.scratch_len());
    let mut runs: Vec<_> = outs.zip(scratch).enumerate().collect();
    pool.run(&mut runs, |(w, (out, scratch))| {
        let run = *w * per..planes.min((*w + 1) * per);
        plan.run(simd, run, out, scratch);
    });
    out
}

/// One depthwise call's operands and geometry, shared by its workers.
struct Depthwise<'a> {
    input: &'a [i8],
    weights: &'a [i8],
    bias: Option<&'a [i32]>,
    groups: usize,
    /// Output channels per input channel (the channel multiplier).
    kg: usize,
    in_hw: (usize, usize),
    kernel: (usize, usize),
    st: usize,
    pad: usize,
    /// Row pitch of the polyphase planes and of the accumulator.
    pw: usize,
    /// `f32`s in one polyphase plane.
    phase: usize,
    out_hw: (usize, usize),
    /// Accumulator length: `(oh − 1)·pw + ow`, padded to whole blocks.
    acc_len: usize,
    zp_a: f32,
    zp_w: f32,
    scale: f32,
    zp_out: i8,
}

impl Depthwise<'_> {
    /// `f32`s in the polyphase planes plus the zero block after them.
    fn planes_len(&self) -> usize {
        self.st * self.st * self.phase + AVX2_BLOCK
    }

    /// `f32`s of scratch one worker needs: planes, then accumulator.
    fn scratch_len(&self) -> usize {
        self.planes_len() + self.acc_len
    }

    /// Convolves the planes `run` (flattened `n·groups + c`) into `out`,
    /// their `kg·oh·ow` outputs, with `scratch` of [`Self::scratch_len`].
    fn run(&self, simd: bool, run: Range<usize>, out: &mut [i8], scratch: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` is only true when AVX2 was detected.
            unsafe { self.run_avx2(run, out, scratch) };
            return;
        }
        let _ = simd;
        self.run_blocks::<PORTABLE_BLOCK>(run, out, scratch);
    }

    /// [`Self::run_blocks`] compiled for AVX2.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support (see `simd_kernels_active`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(&self, run: Range<usize>, out: &mut [i8], scratch: &mut [f32]) {
        self.run_blocks::<AVX2_BLOCK>(run, out, scratch);
    }

    /// The worker body behind [`Self::run`], with a tap-loop block of `B`
    /// outputs.
    #[inline(always)]
    fn run_blocks<const B: usize>(&self, run: Range<usize>, out: &mut [i8], scratch: &mut [f32]) {
        let (r, s) = self.kernel;
        let (st, phase, pw) = (self.st, self.phase, self.pw);
        let (oh, ow) = self.out_hw;
        let (npix, ntaps, plane) = (oh * ow, r * s, self.in_hw.0 * self.in_hw.1);
        let (planes, acc) = scratch.split_at_mut(self.planes_len());
        let acc = &mut acc[..self.acc_len];
        // Arena contents are unspecified: zero the padding and the block
        // after the planes once. The input cells are rewritten per plane.
        planes.fill(0.0);
        // Where tap `(ry, rx)` starts reading: its phase, shifted by
        // `(ry / st, rx / st)`.
        let mut offsets = [0usize; DEPTHWISE_MAX_TAPS];
        for (i, at) in offsets[..ntaps].iter_mut().enumerate() {
            let (ry, rx) = (i / s, i % s);
            *at = ((ry % st) * st + rx % st) * phase + (ry / st) * pw + rx / st;
        }
        let offsets = &offsets[..ntaps];
        let mut taps = [0.0f32; DEPTHWISE_MAX_TAPS];
        for (i, out) in run.zip(out.chunks_exact_mut(self.kg * npix)) {
            self.fill(&self.input[i * plane..(i + 1) * plane], planes);
            let k0 = (i % self.groups) * self.kg;
            for (k, out) in (k0..).zip(out.chunks_exact_mut(npix)) {
                let wk = &self.weights[k * ntaps..(k + 1) * ntaps];
                for (t, &w) in taps.iter_mut().zip(wk) {
                    *t = f32::from(w) - self.zp_w;
                }
                tap_loop::<B>(acc, planes, &taps[..ntaps], offsets);
                if pw != ow {
                    for oy in 1..oh {
                        acc.copy_within(oy * pw..oy * pw + ow, oy * ow);
                    }
                }
                let bias = self.bias.map_or(0, |b| b[k]);
                requantize_row(&acc[..npix], bias, self.scale, self.zp_out, i8::MIN, out);
            }
        }
    }

    /// Writes one input plane, minus `zp_a`, into the polyphase planes'
    /// input cells (the padding cells stay zero).
    #[inline(always)]
    fn fill(&self, src: &[i8], planes: &mut [f32]) {
        let (st, pad, phase) = (self.st, self.pad, self.phase);
        let sub = |x: i8| f32::from(x) - self.zp_a;
        for (iy, row) in src.chunks_exact(self.in_hw.1).enumerate() {
            let y = iy + pad;
            // Row `y / st` of phases `(y % st, 0..st)`.
            let at = (y % st) * st * phase + (y / st) * self.pw;
            match st {
                1 => {
                    for (d, &x) in planes[at + pad..].iter_mut().zip(row) {
                        *d = sub(x);
                    }
                }
                2 => {
                    // Padded column `ix + pad` goes to phase `(ix + pad) % 2`
                    // at column `(ix + pad) / 2`: after an odd padding the
                    // first input column is odd, and then the row runs in
                    // (even, odd) pairs.
                    let (even, odd) = planes[at..].split_at_mut(phase);
                    let lead = pad % 2;
                    if lead == 1 {
                        odd[pad / 2] = sub(row[0]);
                    }
                    let col = (pad + lead) / 2;
                    let pairs = row[lead..].chunks_exact(2);
                    if let [x] = pairs.remainder() {
                        even[col + pairs.len()] = sub(*x);
                    }
                    for ((p, e), o) in pairs.zip(&mut even[col..]).zip(&mut odd[col..]) {
                        *e = sub(p[0]);
                        *o = sub(p[1]);
                    }
                }
                _ => {
                    for px in 0..st {
                        // The first input column whose padded column is in phase `px`.
                        let ix0 = (px + st - pad % st) % st;
                        let at = at + px * phase + (ix0 + pad) / st;
                        let xs = row.get(ix0..).unwrap_or_default().chunks(st);
                        for (d, x) in planes[at..].iter_mut().zip(xs) {
                            *d = sub(x[0]);
                        }
                    }
                }
            }
        }
    }
}

/// `acc = Σ taps[t] · planes[offsets[t]..][..acc.len()]`, one block of `B`
/// outputs at a time held in registers across every tap.
#[inline(always)]
fn tap_loop<const B: usize>(acc: &mut [f32], planes: &[f32], taps: &[f32], offsets: &[usize]) {
    for (b, dst) in acc.chunks_exact_mut(B).enumerate() {
        let mut sum = [0.0f32; B];
        for (&t, &at) in taps.iter().zip(offsets) {
            let xs: &[f32; B] = planes[at + b * B..][..B].try_into().expect("one block");
            for (s, &x) in sum.iter_mut().zip(xs) {
                *s += t * x;
            }
        }
        dst.copy_from_slice(&sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::PARALLEL_MIN;
    use crate::quant::{calibrate_symmetric, dequantize_tensor, quantize_tensor};
    use crate::rng::DetRng;

    /// Scale 1, zero point 0: requantization is the identity on in-range
    /// accumulators, so the semantic tests below read exact integers.
    const UNIT: QuantParams = QuantParams { scale: 1.0, zero_point: 0 };
    const BOTH: [KernelPolicy; 2] = [KernelPolicy::Naive, KernelPolicy::Im2colGemm];

    fn rand_tensor(shape: Shape4, seed: u64, range: f32) -> Tensor<f32> {
        let mut rng = DetRng::new(seed);
        let data = (0..shape.volume()).map(|_| rng.uniform_f32(-range, range)).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    fn rand_i8(shape: Shape4, seed: u64) -> Tensor<i8> {
        let mut rng = DetRng::new(seed);
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect()).unwrap()
    }

    /// Small integers in `-2..=2`, so small unit-scale convs never saturate.
    fn small_i8(shape: Shape4, seed: u64) -> Tensor<i8> {
        let mut rng = DetRng::new(seed);
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.below(5) as i8 - 2).collect())
            .unwrap()
    }

    /// [`conv2d_i8_in`] on raw weights with a private arena.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        x: &Tensor<i8>,
        in_q: QuantParams,
        w: &Tensor<i8>,
        w_q: QuantParams,
        bias: Option<&[i32]>,
        out_q: QuantParams,
        p: &Conv2dParams,
        policy: KernelPolicy,
    ) -> Result<Tensor<i8>, TensorError> {
        conv2d_i8_in(x, in_q, w, w_q, None, bias, out_q, p, policy, &mut Arena::new())
    }

    /// Unit-scale, bias-free [`conv`].
    fn unit_conv(
        x: &Tensor<i8>,
        w: &Tensor<i8>,
        p: &Conv2dParams,
        policy: KernelPolicy,
    ) -> Result<Tensor<i8>, TensorError> {
        conv(x, UNIT, w, UNIT, None, UNIT, p, policy)
    }

    /// Test-local f32 direct loop (dense, `groups == 1`): the real-valued
    /// reference the quantized conv is measured against.
    fn f32_reference(x: &Tensor<f32>, w: &Tensor<f32>, p: &Conv2dParams) -> Tensor<f32> {
        let (is, ws) = (x.shape(), w.shape());
        let dim = |i, k| conv_out_dim(i, k, p.stride, p.padding).unwrap();
        let os = Shape4::new(is.n, ws.n, dim(is.h, ws.h), dim(is.w, ws.w));
        let mut out = Tensor::zeros(os);
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            let (n, k, oy, ox) =
                (i / (os.c * os.h * os.w), i / (os.h * os.w) % os.c, i / os.w % os.h, i % os.w);
            for j in 0..ws.c * ws.h * ws.w {
                let (c, ry, rx) = (j / (ws.h * ws.w), j / ws.w % ws.h, j % ws.w);
                let iy = (oy * p.stride + ry).checked_sub(p.padding).filter(|&v| v < is.h);
                let ix = (ox * p.stride + rx).checked_sub(p.padding).filter(|&v| v < is.w);
                if let (Some(iy), Some(ix)) = (iy, ix) {
                    *o += x.get(n, c, iy, ix) * w.get(k, c, ry, rx);
                }
            }
        }
        out
    }

    #[test]
    fn identity_1x1_kernel_passes_input_through() {
        let input = rand_i8(Shape4::new(1, 1, 4, 4), 1);
        let weights = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![1i8]).unwrap();
        for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
            let out = unit_conv(&input, &weights, &Conv2dParams::new(1, 1), policy).unwrap();
            assert_eq!(out, input);
        }
    }

    #[test]
    fn all_ones_3x3_counts_window_elements() {
        let input = Tensor::<i8>::filled(Shape4::new(1, 1, 5, 5), 1);
        let weights = Tensor::<i8>::filled(Shape4::new(1, 1, 3, 3), 1);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        for policy in BOTH {
            let out = unit_conv(&input, &weights, &p, policy).unwrap();
            // Corner windows see 4 elements, edges 6, interior 9.
            assert_eq!(out.get(0, 0, 0, 0), 4);
            assert_eq!(out.get(0, 0, 0, 2), 6);
            assert_eq!(out.get(0, 0, 2, 2), 9);
        }
    }

    #[test]
    fn stride_two_halves_output() {
        let input = rand_i8(Shape4::new(1, 3, 8, 8), 2);
        let weights = rand_i8(Shape4::new(4, 3, 3, 3), 3);
        let p = Conv2dParams::new(3, 3).with_stride(2).with_padding(1);
        for policy in BOTH {
            let out = unit_conv(&input, &weights, &p, policy).unwrap();
            assert_eq!(out.shape(), Shape4::new(1, 4, 4, 4));
        }
    }

    #[test]
    fn bias_adds_per_kernel_constant() {
        let input = Tensor::<i8>::zeros(Shape4::new(1, 2, 3, 3));
        let weights = rand_i8(Shape4::new(2, 2, 3, 3), 4);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        for policy in BOTH {
            let out = conv(&input, UNIT, &weights, UNIT, Some(&[15, -20]), UNIT, &p, policy);
            let out = out.unwrap();
            assert_eq!(out.get(0, 0, 1, 1), 15);
            assert_eq!(out.get(0, 1, 2, 2), -20);
        }
    }

    #[test]
    fn depthwise_groups_isolate_channels() {
        // Two channels; each depthwise kernel is identity-like on its own channel.
        let mut input = Tensor::<i8>::zeros(Shape4::new(1, 2, 3, 3));
        input.set(0, 0, 1, 1, 5);
        input.set(0, 1, 1, 1, 7);
        let mut weights = Tensor::<i8>::zeros(Shape4::new(2, 1, 3, 3));
        weights.set(0, 0, 1, 1, 1);
        weights.set(1, 0, 1, 1, 2);
        let p = Conv2dParams::new(3, 3).with_padding(1).with_groups(2);
        for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
            let out = unit_conv(&input, &weights, &p, policy).unwrap();
            assert_eq!(out.get(0, 0, 1, 1), 5);
            assert_eq!(out.get(0, 1, 1, 1), 14);
            // Cross-channel leakage must be zero.
            assert_eq!(out.get(0, 0, 0, 0), 0);
        }
    }

    #[test]
    fn rejects_channel_mismatch() {
        let input = Tensor::<i8>::zeros(Shape4::new(1, 3, 4, 4));
        let weights = Tensor::<i8>::zeros(Shape4::new(2, 4, 3, 3));
        for policy in BOTH {
            let err = unit_conv(&input, &weights, &Conv2dParams::new(3, 3), policy).unwrap_err();
            assert!(matches!(err, TensorError::ShapeMismatch { .. }));
        }
    }

    #[test]
    fn rejects_kernel_param_mismatch() {
        let input = Tensor::<i8>::zeros(Shape4::new(1, 3, 4, 4));
        let weights = Tensor::<i8>::zeros(Shape4::new(2, 3, 5, 5));
        for policy in BOTH {
            let err = unit_conv(&input, &weights, &Conv2dParams::new(3, 3), policy).unwrap_err();
            assert!(matches!(err, TensorError::ShapeMismatch { .. }));
        }
    }

    #[test]
    fn rejects_empty_output() {
        let input = Tensor::<i8>::zeros(Shape4::new(1, 1, 2, 2));
        let weights = Tensor::<i8>::zeros(Shape4::new(1, 1, 5, 5));
        for policy in BOTH {
            let err = unit_conv(&input, &weights, &Conv2dParams::new(5, 5), policy).unwrap_err();
            assert!(matches!(err, TensorError::EmptyOutput { .. }));
        }
    }

    #[test]
    fn quantized_conv_tracks_f32_reference() {
        let input = rand_tensor(Shape4::new(1, 4, 6, 6), 10, 1.0);
        let weights = rand_tensor(Shape4::new(8, 4, 3, 3), 11, 0.25);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let ref_out = f32_reference(&input, &weights, &p);

        let in_q = calibrate_symmetric(&input);
        let w_q = calibrate_symmetric(&weights);
        let out_q = calibrate_symmetric(&ref_out);
        let qi = quantize_tensor(&input, in_q);
        let qw = quantize_tensor(&weights, w_q);
        let qout = conv(&qi, in_q, &qw, w_q, None, out_q, &p, KernelPolicy::Auto).unwrap();
        let deq = dequantize_tensor(&qout, out_q);

        // int8 conv should track the reference within a few output quanta.
        let tol = 4.0 * out_q.scale + 36.0 * in_q.scale * w_q.scale;
        assert!(ref_out.max_abs_diff(&deq).unwrap() <= tol);
    }

    #[test]
    fn quantized_conv_zero_point_padding_is_neutral() {
        // With a nonzero input zero point, padded border must behave as real 0.
        let input = Tensor::<f32>::filled(Shape4::new(1, 1, 3, 3), 2.0);
        let weights = Tensor::<f32>::filled(Shape4::new(1, 1, 3, 3), 1.0);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let ref_out = f32_reference(&input, &weights, &p);

        let in_q = QuantParams::asymmetric(0.0, 2.0); // large zero point
        let w_q = QuantParams::symmetric(1.0);
        let out_q = QuantParams::symmetric(20.0);
        let qi = quantize_tensor(&input, in_q);
        let qw = quantize_tensor(&weights, w_q);
        for policy in BOTH {
            let qout = conv(&qi, in_q, &qw, w_q, None, out_q, &p, policy).unwrap();
            let deq = dequantize_tensor(&qout, out_q);
            assert!(ref_out.max_abs_diff(&deq).unwrap() <= 0.5);
        }
    }

    #[test]
    fn gemm_backend_is_bit_identical_to_naive_on_i8() {
        let x = rand_i8(Shape4::new(2, 6, 9, 9), 77);
        let w = rand_i8(Shape4::new(8, 3, 3, 3), 78);
        let in_q = QuantParams::new(0.05, 7);
        let w_q = QuantParams::new(0.02, -3);
        let out_q = QuantParams::new(0.3, 5);
        let bias: Vec<i32> = (0..8).map(|i| i * 17 - 40).collect();
        let p = Conv2dParams::new(3, 3).with_stride(2).with_padding(1).with_groups(2);
        let [a, b] = BOTH.map(|policy| conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, policy));
        assert_eq!(a.unwrap(), b.unwrap(), "i8 backends must agree bit-for-bit");
    }

    #[test]
    fn prepacked_conv_is_bit_identical_and_reuses_arena() {
        let x = rand_i8(Shape4::new(1, 5, 8, 8), 123);
        let w = rand_i8(Shape4::new(6, 5, 3, 3), 124);
        let in_q = QuantParams::new(0.04, -6);
        let w_q = QuantParams::new(0.03, 2);
        let out_q = QuantParams::new(0.25, 1);
        let bias: Vec<i32> = (0..6).map(|i| i * 11 - 20).collect();
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let naive = conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive).unwrap();
        let packed = PackedConv2d::pack_with_layout(&w, w_q, &p, PackLayout::Panel).unwrap();
        let mut arena = Arena::new();
        let prepacked = |arena: &mut Arena| {
            let gemm = KernelPolicy::Im2colGemm;
            conv2d_i8_in(&x, in_q, &w, w_q, Some(&packed), Some(&bias), out_q, &p, gemm, arena)
                .unwrap()
        };
        let first = prepacked(&mut arena);
        assert_eq!(naive, first, "prepacked path must match the oracle bit-for-bit");
        let reserved = arena.reserved_bytes();
        assert!(reserved > 0);
        // A second query reuses the arena without growing it.
        let second = prepacked(&mut arena);
        assert_eq!(first, second);
        assert_eq!(arena.reserved_bytes(), reserved, "steady state must not reallocate");
    }

    /// The depthwise kernel's input plane lives in arena scratch whose
    /// contents are unspecified: a large-padding call leaves interior
    /// values where a smaller call's border sits, so the second call must
    /// re-zero its border — and must fit in the scratch the first reserved.
    #[test]
    fn depthwise_kernel_rezeroes_a_reused_arena() {
        let mut arena = Arena::new();
        let mut run = |ishape: Shape4, p: Conv2dParams, in_q, w_q, seed| {
            let x = rand_i8(ishape, seed);
            let w = rand_i8(Shape4::new(ishape.c, 1, 3, 3), seed + 1);
            let bias: Vec<i32> = (0..ishape.c as i32).map(|i| i * 37 - 50).collect();
            let out_q = QuantParams::new(0.3, -2);
            let auto = KernelPolicy::Auto;
            let got =
                conv2d_i8_in(&x, in_q, &w, w_q, None, Some(&bias), out_q, &p, auto, &mut arena);
            let naive = conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive);
            assert_eq!(got.unwrap(), naive.unwrap(), "depthwise kernel diverged from naive");
            arena.reserved_bytes()
        };
        let dw = |c, pad| Conv2dParams::new(3, 3).with_padding(pad).with_groups(c);
        let (q0, q1) = (QuantParams::new(0.05, 0), QuantParams::new(0.02, 0));
        let reserved = run(Shape4::new(1, 2, 6, 6), dw(2, 3), q0, q1, 400);
        let zp = (QuantParams::new(0.05, 5), QuantParams::new(0.02, -2));
        assert_eq!(run(Shape4::new(1, 3, 9, 9), dw(3, 1), zp.0, zp.1, 402), reserved);
    }

    /// A depthwise problem above `PARALLEL_MIN` whose 7 planes no worker
    /// count above 1 divides evenly, on arenas whose pools are 1–4 wide,
    /// each run twice: every call equals the oracle, so the split runs
    /// equal the one-worker run, and the second call on an arena reuses
    /// the per-worker scratch the first reserved.
    #[test]
    fn threaded_depthwise_reuses_one_arena() {
        let (c, mult, ks) = (7, 2, 5);
        let x = rand_i8(Shape4::new(1, c, 64, 60), 500);
        let w = rand_i8(Shape4::new(c * mult, 1, ks, ks), 501);
        let bias: Vec<i32> = (0..(c * mult) as i32).map(|i| i * 53 - 300).collect();
        let (in_q, w_q) = (QuantParams::new(0.05, -7), QuantParams::new(0.02, 4));
        let out_q = QuantParams::new(0.4, 2);
        let p = Conv2dParams::new(ks, ks).with_padding(2).with_groups(c);
        assert!(c * mult * ks * ks * 64 * 60 >= PARALLEL_MIN, "not threaded");
        let naive = conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive).unwrap();
        let auto = |arena: &mut Arena| {
            let auto = KernelPolicy::Auto;
            conv2d_i8_in(&x, in_q, &w, w_q, None, Some(&bias), out_q, &p, auto, arena).unwrap()
        };
        for width in 1..=4 {
            let mut arena = Arena::with_width(width);
            assert_eq!(auto(&mut arena), naive, "width {width}: first call diverged");
            let reserved = arena.reserved_bytes();
            assert_eq!(auto(&mut arena), naive, "width {width}: second call diverged");
            assert_eq!(arena.reserved_bytes(), reserved, "width {width}: steady state grew");
        }
    }

    /// The conv prologue split: a 3×3 conv whose patch matrix reaches
    /// `PROLOGUE_SPLIT_MIN` cells, with 5 input channels and a ragged last
    /// column panel, so no width of 2–4 splits the channel ranges or the
    /// panel runs evenly. Both entry points give the same bytes at every
    /// width as on one worker, and as the oracle.
    #[test]
    fn split_prologue_is_bit_identical_at_every_width() {
        use crate::ops::activation::Activation;
        let (c, k, hw) = (5, 6, 153);
        let p = Conv2dParams::new(3, 3).with_padding(1);
        assert!(c * 9 * hw * hw >= PROLOGUE_SPLIT_MIN, "prologue not split");
        let x = rand_i8(Shape4::new(1, c, hw, hw), 800);
        let w = rand_i8(Shape4::new(k, c, 3, 3), 801);
        let (in_q, w_q, out_q) =
            (QuantParams::new(0.05, 3), QuantParams::new(0.02, -1), QuantParams::new(0.3, 2));
        let bias: Vec<i32> = (0..k as i32).map(|i| i * 29 - 70).collect();
        let naive = conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive).unwrap();
        let acc_scale = in_q.scale * w_q.scale / out_q.scale;
        let ep = Epilogue::uniform(bias.clone(), acc_scale, out_q, Activation::None).unwrap();
        let kpair = PackedConv2d::pack_with_layout(&w, w_q, &p, PackLayout::KPair).unwrap();
        for width in 1..=4 {
            let mut arena = Arena::with_width(width);
            let gemm = KernelPolicy::Im2colGemm;
            let unfused =
                conv2d_i8_in(&x, in_q, &w, w_q, None, Some(&bias), out_q, &p, gemm, &mut arena);
            assert_eq!(unfused.unwrap(), naive, "width {width}: unfused conv diverged");
            let fused = conv2d_i8_fused(&x, in_q, &kpair, &ep, &p, &mut arena).unwrap();
            assert_eq!(fused, naive, "width {width}: fused conv diverged");
        }
    }

    /// The dispatched (AVX2 where detected) and portable builds of the
    /// depthwise worker body agree with the oracle bit for bit, single and
    /// threaded, at strides 1–3 (stride 3 takes the general fill) and odd
    /// and even paddings. Without AVX2 both builds are the portable one.
    #[test]
    fn depthwise_simd_and_portable_agree_bit_exactly() {
        let mut rng = DetRng::new(23);
        let simd = simd_kernels_active();
        for case in 0..24 {
            let (n, c, mult) = (1 + rng.below(2), 1 + rng.below(9), 1 + rng.below(2));
            let (ks, st) = ([1, 3, 5, 7][rng.below(4)], 1 + rng.below(3));
            let pad = rng.below(ks / 2 + 2);
            let side = if case % 4 == 0 { 60 + rng.below(12) } else { 1 + rng.below(24) };
            let (h, w) = (side.max(ks), side.max(ks) + rng.below(5));
            let x = rand_i8(Shape4::new(n, c, h, w), 600 + case as u64);
            let wt = rand_i8(Shape4::new(c * mult, 1, ks, ks), 700 + case as u64);
            let bias: Vec<i32> = (0..(c * mult) as i32).map(|i| i * 211 - 900).collect();
            let (in_q, w_q) = (QuantParams::new(0.05, rng.next_i8()), QuantParams::new(0.02, 3));
            let out_q = QuantParams::new(0.5, -4);
            let p = Conv2dParams::new(ks, ks).with_stride(st).with_padding(pad).with_groups(c);
            let dims = p.output_dims(x.shape(), wt.shape()).unwrap();
            let naive = conv(&x, in_q, &wt, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive);
            let [dispatched, portable] = [simd, false].map(|simd| {
                let (b, mut arena) = (Some(bias.as_slice()), Arena::new());
                conv2d_i8_depthwise(&x, in_q, &wt, w_q, b, out_q, &p, dims, &mut arena, simd)
            });
            let shape = format!("case {case}: {n}x{c}x{h}x{w}, {ks}x{ks}/{st} pad {pad} x{mult}");
            assert_eq!(dispatched, portable, "{shape}");
            assert_eq!(naive.unwrap(), portable, "{shape}");
        }
    }

    /// The depthwise kernel sums in `f32`, exact below 2²⁴. At its 256-tap
    /// bound the extreme sum 256·255² is still exact; 17×17 taps would not
    /// be, so `Auto` must run them elsewhere. The bias cancels the sum, so a
    /// unit-scale output shows an error in its last unit.
    #[test]
    fn depthwise_sums_are_exact_at_the_tap_bound() {
        let q = QuantParams::new(1.0, 127); // -128 - 127 = -255
        for ks in [16, 17] {
            let x = Tensor::<i8>::filled(Shape4::new(1, 2, ks, ks), -128);
            let w = Tensor::<i8>::filled(Shape4::new(2, 1, ks, ks), -128);
            let sum = (ks * ks) as i32 * 255 * 255;
            let bias = [5 - sum, -3 - sum];
            let p = Conv2dParams::new(ks, ks).with_groups(2);
            let auto = p.backend(x.shape(), w.shape(), 1, 1, KernelPolicy::Auto);
            assert_eq!(auto == ConvBackend::Depthwise, ks * ks <= DEPTHWISE_MAX_TAPS);
            for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
                let out = conv(&x, q, &w, q, Some(&bias), UNIT, &p, policy).unwrap();
                assert_eq!(out.as_slice(), &[5, -3], "{ks}x{ks} under {policy}");
            }
        }
    }

    #[test]
    fn prepacked_conv_rejects_mismatched_shapes() {
        let w = Tensor::<i8>::zeros(Shape4::new(4, 3, 3, 3));
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let q = QuantParams::new(0.1, 0);
        let packed = PackedConv2d::pack_with_layout(&w, q, &p, PackLayout::Panel).unwrap();
        let x = Tensor::<i8>::zeros(Shape4::new(1, 5, 8, 8)); // 5 channels != 3
        let gemm = KernelPolicy::Im2colGemm;
        let err = conv2d_i8_in(&x, q, &w, q, Some(&packed), None, q, &p, gemm, &mut Arena::new())
            .unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    /// Panels that do not stand for the raw weights are an error under
    /// every policy: the direct loops would read one set of weights and the
    /// GEMM another.
    #[test]
    fn mismatched_panels_are_rejected_under_every_policy() {
        let x = rand_i8(Shape4::new(1, 4, 8, 8), 300);
        let w = rand_i8(Shape4::new(6, 4, 3, 3), 301);
        let (w_q, q) = (QuantParams::new(0.02, -1), QuantParams::new(0.1, 2));
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let pack = |w: &Tensor<i8>, w_q, p: Conv2dParams, layout| {
            PackedConv2d::pack_with_layout(w, w_q, &p, layout).unwrap()
        };
        let mismatched = [
            pack(&rand_i8(Shape4::new(6, 2, 3, 3), 302), w_q, p, PackLayout::Panel), // shape
            pack(&w, QuantParams::new(0.02, 3), p, PackLayout::Panel),               // w_q
            pack(&w, w_q, p.with_groups(2), PackLayout::Panel),                      // groups
            pack(&w, w_q, p, PackLayout::KPair),                                     // layout
        ];
        for packed in &mismatched {
            for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
                let mut arena = Arena::new();
                let out =
                    conv2d_i8_in(&x, q, &w, w_q, Some(packed), None, q, &p, policy, &mut arena);
                assert!(out.is_err(), "{policy} accepted mismatched panels");
            }
        }
    }

    #[test]
    fn fused_conv_matches_oracle_plus_activation_bitwise() {
        use crate::ops::activation::Activation;
        let in_q = QuantParams::new(0.05, 3);
        let w_q = QuantParams::new(0.02, -1);
        let out_q = QuantParams::new(0.21, 2);
        // One 3×3 padded conv and one 1×1 (exercises the im2col-skip path).
        for (ishape, wshape, p, seed) in [
            (
                Shape4::new(2, 5, 7, 7),
                Shape4::new(6, 5, 3, 3),
                Conv2dParams::new(3, 3).with_padding(1),
                321,
            ),
            (Shape4::new(1, 8, 6, 6), Shape4::new(10, 8, 1, 1), Conv2dParams::new(1, 1), 322),
        ] {
            let x = rand_i8(ishape, seed);
            let w = rand_i8(wshape, seed + 100);
            let bias: Vec<i32> = (0..wshape.n).map(|i| (i as i32) * 13 - 31).collect();
            let acc_scale = in_q.scale * w_q.scale / out_q.scale;
            for act in [Activation::None, Activation::Relu, Activation::HSwish] {
                let oracle =
                    conv(&x, in_q, &w, w_q, Some(&bias), out_q, &p, KernelPolicy::Naive).unwrap();
                let want = oracle.map(|q| match act {
                    Activation::None => q,
                    Activation::Relu => q.max(0),
                    other => out_q.quantize(other.apply(out_q.dequantize(q))),
                });
                let packed =
                    PackedConv2d::pack_with_layout(&w, w_q, &p, PackLayout::KPair).unwrap();
                let ep = Epilogue::uniform(bias.clone(), acc_scale, out_q, act).unwrap();
                let got = conv2d_i8_fused(&x, in_q, &packed, &ep, &p, &mut Arena::new()).unwrap();
                assert_eq!(want, got, "fused conv must match oracle+activation for {act:?}");
            }
        }
    }

    #[test]
    fn fused_conv_rejects_layout_and_channel_mismatch() {
        use crate::ops::activation::Activation;
        let w = Tensor::<i8>::zeros(Shape4::new(4, 3, 3, 3));
        let p = Conv2dParams::new(3, 3).with_padding(1);
        let q = QuantParams::new(0.1, 0);
        let x = Tensor::<i8>::zeros(Shape4::new(1, 3, 8, 8));
        let ep = Epilogue::uniform(vec![0; 4], 0.1, q, Activation::None).unwrap();
        // Panel layout must be rejected by the fused path...
        let panel = PackedConv2d::pack_with_layout(&w, q, &p, PackLayout::Panel).unwrap();
        assert!(conv2d_i8_fused(&x, q, &panel, &ep, &p, &mut Arena::new()).is_err());
        // ...and KPair layout by the unfused path.
        let kpair = PackedConv2d::pack_with_layout(&w, q, &p, PackLayout::KPair).unwrap();
        let gemm = KernelPolicy::Im2colGemm;
        assert!(
            conv2d_i8_in(&x, q, &w, q, Some(&kpair), None, q, &p, gemm, &mut Arena::new()).is_err()
        );
        // Epilogue channel count must match the packed weights.
        let ep3 = Epilogue::uniform(vec![0; 3], 0.1, q, Activation::None).unwrap();
        assert!(conv2d_i8_fused(&x, q, &kpair, &ep3, &p, &mut Arena::new()).is_err());
    }

    /// Diagnostic, not a gate: prints direct-vs-packed-GEMM wall times
    /// around the `Auto` crossover so `AUTO_DIRECT_MAC_THRESHOLD` can be
    /// re-tuned when the kernels change. Run with
    /// `cargo test --release -p sushi-tensor -- --ignored auto_crossover`.
    #[test]
    #[ignore = "diagnostic probe for the Auto threshold; run explicitly in release"]
    fn auto_crossover_probe() {
        use std::time::Instant;
        let q = QuantParams::new(0.03, 2);
        println!("{:>10}  {:>9}  {:>11}  {:>11}", "macs", "shape", "direct", "gemm");
        for (c, hw, kk) in [(2, 4, 2), (4, 6, 4), (8, 8, 8), (8, 12, 8), (16, 14, 16), (32, 14, 32)]
        {
            let x = rand_i8(Shape4::new(1, c, hw, hw), 1);
            let w = rand_i8(Shape4::new(kk, c, 3, 3), 2);
            let p = Conv2dParams::new(3, 3).with_padding(1);
            let macs = kk * c * 9 * hw * hw;
            let mut arena = Arena::new();
            let time = |policy: KernelPolicy, arena: &mut Arena| {
                let mut best = f64::INFINITY;
                for _ in 0..50 {
                    let t = Instant::now();
                    let _ = conv2d_i8_in(&x, q, &w, q, None, None, q, &p, policy, arena).unwrap();
                    best = best.min(t.elapsed().as_secs_f64() * 1e6);
                }
                best
            };
            let direct = time(KernelPolicy::Naive, &mut arena);
            let gemm = time(KernelPolicy::Im2colGemm, &mut arena);
            println!("{macs:>10}  {c}x{hw}x{hw}x{kk}  {direct:>9.2} us  {gemm:>9.2} us");
        }
    }

    #[test]
    fn grouped_conv_matches_manual_group_split() {
        // groups=2 over 4 channels == two independent convs over 2 channels each.
        let input = small_i8(Shape4::new(1, 4, 5, 5), 20);
        let weights = small_i8(Shape4::new(6, 2, 3, 3), 21);
        let p = Conv2dParams::new(3, 3).with_padding(1).with_groups(2);

        // Manual: first 3 kernels see channels 0..2, last 3 see channels 2..4;
        // both halves are contiguous NCHW chunks.
        let chunk = |t: &Tensor<i8>, shape: Shape4, at: usize| {
            Tensor::from_vec(shape, t.as_slice()[at..at + shape.volume()].to_vec()).unwrap()
        };
        let (xs, ws) = (Shape4::new(1, 2, 5, 5), Shape4::new(3, 2, 3, 3));
        let pa = Conv2dParams::new(3, 3).with_padding(1);
        for policy in BOTH {
            let out = unit_conv(&input, &weights, &p, policy).unwrap();
            let half = |g: usize| {
                let (x, w) =
                    (chunk(&input, xs, g * xs.volume()), chunk(&weights, ws, g * ws.volume()));
                unit_conv(&x, &w, &pa, policy).unwrap()
            };
            let (out_a, out_b) = (half(0), half(1));
            let split: Vec<i8> = [out_a.as_slice(), out_b.as_slice()].concat();
            assert_eq!(out.as_slice(), split.as_slice());
        }
    }
}

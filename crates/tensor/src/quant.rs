//! Int8 quantization with zero points and scales.
//!
//! The paper (footnote 3) quantizes weights, input activations and zero
//! points to `int8`, and the quantization scale to `int32` fixed point.
//! SushiAccel's Zero-Subtraction (ZS) stage computes
//! `(iAct − zp_a) · (w − zp_w)` in int32 before rescaling — this module
//! provides the same semantics so the accelerator's functional model can be
//! validated bit-exactly.
//!
//! Every conversion to `i8` ends in the same output stage,
//! `clamp(round(x) + zp)`. [`QuantParams::quantize`] and
//! [`requantize_accumulator`] compute it one scalar at a time and are the
//! oracle. The kernels run it a lane at a time (`requantize_row`,
//! [`QuantParams::quantize_slice`]): `f32::round` has no SSE2 instruction,
//! so on the x86-64 baseline every scalar call is a libm `roundf`. The
//! lane-wise form gives the same bits on every input; `docs/KERNELS.md`
//! ("Fused tail") says why.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m128i, _mm_cvttps_epi32, _mm_div_ps, _mm_loadu_ps, _mm_loadu_si128, _mm_set1_ps,
};

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Affine quantization parameters for one tensor: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Multiplicative scale (strictly positive).
    pub scale: f32,
    /// Zero point in the int8 domain.
    pub zero_point: i8,
}

impl QuantParams {
    /// Creates quantization parameters.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive and finite.
    #[must_use]
    pub fn new(scale: f32, zero_point: i8) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantization scale must be positive, got {scale}"
        );
        Self { scale, zero_point }
    }

    /// Symmetric parameters (zero point 0) covering `[-max_abs, max_abs]`.
    ///
    /// A `max_abs` of zero degenerates to the smallest positive scale so that
    /// all-zero tensors still quantize losslessly.
    #[must_use]
    pub fn symmetric(max_abs: f32) -> Self {
        let max_abs = if max_abs > 0.0 { max_abs } else { f32::MIN_POSITIVE };
        Self { scale: max_abs / 127.0, zero_point: 0 }
    }

    /// Asymmetric parameters covering `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    #[must_use]
    pub fn asymmetric(lo: f32, hi: f32) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range [{lo}, {hi}]");
        let span = (hi - lo).max(f32::MIN_POSITIVE);
        let scale = span / 255.0;
        let zp = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i8;
        Self { scale, zero_point: zp }
    }

    /// Quantizes a single value.
    #[inline]
    #[must_use]
    pub fn quantize(&self, value: f32) -> i8 {
        let q = (value / self.scale).round() + f32::from(self.zero_point);
        q.clamp(-128.0, 127.0) as i8
    }

    /// Dequantizes a single value.
    #[inline]
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (f32::from(q) - f32::from(self.zero_point))
    }

    /// Quantizes `src` into `dst` a lane at a time, bit-identical to
    /// [`QuantParams::quantize`] on every element, NaN and ±∞ included. The
    /// divide stays a divide (a reciprocal multiply would round
    /// differently).
    ///
    /// # Errors
    /// [`TensorError::LengthMismatch`] when the slices differ in length.
    pub fn quantize_slice(&self, src: &[f32], dst: &mut [i8]) -> Result<(), TensorError> {
        if src.len() != dst.len() {
            return Err(TensorError::LengthMismatch { expected: src.len(), actual: dst.len() });
        }
        self.quantize_lanes(src, dst);
        Ok(())
    }

    /// [`QuantParams::quantize_slice`] on slices of equal length.
    fn quantize_lanes(&self, src: &[f32], dst: &mut [i8]) {
        let (scale, zp) = (self.scale, self.zero_point);
        by_eight(src, dst, |v| {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is in the x86-64 baseline; both loads stay
            // inside `v`.
            unsafe {
                let (p, s) = (v.as_ptr(), _mm_set1_ps(scale));
                let (a, b) = (_mm_loadu_ps(p), _mm_loadu_ps(p.add(4)));
                sse2::stage8(_mm_div_ps(a, s), _mm_div_ps(b, s), zp, i8::MIN)
            }
            #[cfg(not(target_arch = "x86_64"))]
            v.map(|x| stage(x / scale, zp, i8::MIN))
        });
    }
}

impl Default for QuantParams {
    /// Unit scale, zero offset — the identity mapping over `[-128, 127]`.
    fn default() -> Self {
        Self { scale: 1.0, zero_point: 0 }
    }
}

/// Quantizes an `f32` tensor with the given parameters.
#[must_use]
pub fn quantize_tensor(t: &Tensor<f32>, params: QuantParams) -> Tensor<i8> {
    let mut out = Tensor::zeros(t.shape());
    params.quantize_lanes(t.as_slice(), out.as_mut_slice());
    out
}

/// Dequantizes an `i8` tensor with the given parameters.
#[must_use]
pub fn dequantize_tensor(t: &Tensor<i8>, params: QuantParams) -> Tensor<f32> {
    t.map(|q| params.dequantize(q))
}

/// Chooses symmetric parameters from a tensor's observed dynamic range.
#[must_use]
pub fn calibrate_symmetric(t: &Tensor<f32>) -> QuantParams {
    let max_abs = t.as_slice().iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    QuantParams::symmetric(max_abs)
}

/// Requantizes an int32 accumulator back to int8 output activations.
///
/// `acc_scale` is `in_scale * w_scale / out_scale`; the output zero point is
/// added after rescaling, as done by the accelerator's output stage.
#[inline]
#[must_use]
pub fn requantize_accumulator(acc: i32, acc_scale: f32, out_zp: i8) -> i8 {
    let v = (acc as f32 * acc_scale).round() + f32::from(out_zp);
    v.clamp(-128.0, 127.0) as i8
}

/// An accumulator [`requantize_row`] reads: `i32` from the GEMMs, or the
/// depthwise kernel's `f32` sums, which are exact integers below 2²⁴, so
/// truncation converts them exactly.
pub(crate) trait Accumulator: Copy + Default {
    /// Eight accumulators as two vectors of `i32` lanes.
    #[cfg(target_arch = "x86_64")]
    fn load8(v: &[Self; 8]) -> [__m128i; 2];
    /// The accumulator as an `i32`.
    #[cfg(not(target_arch = "x86_64"))]
    fn to_i32(self) -> i32;
}

impl Accumulator for i32 {
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn load8(v: &[i32; 8]) -> [__m128i; 2] {
        let p = v.as_ptr();
        // SAFETY: SSE2 is in the x86-64 baseline; both loads stay inside `v`.
        unsafe { [_mm_loadu_si128(p.cast()), _mm_loadu_si128(p.add(4).cast())] }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn to_i32(self) -> i32 {
        self
    }
}

impl Accumulator for f32 {
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn load8(v: &[f32; 8]) -> [__m128i; 2] {
        let p = v.as_ptr();
        // SAFETY: SSE2 is in the x86-64 baseline; both loads stay inside `v`.
        unsafe { [_mm_cvttps_epi32(_mm_loadu_ps(p)), _mm_cvttps_epi32(_mm_loadu_ps(p.add(4)))] }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn to_i32(self) -> i32 {
        self as i32
    }
}

/// Requantizes one row a lane at a time:
/// `dst[i] = clamp(round((acc[i] + bias) as f32 · scale) + zp, floor, 127)`.
/// With `floor == i8::MIN` that is
/// [`requantize_accumulator`]`(acc[i] + bias, scale, zp)`, bit for bit.
/// A `floor` of 0 folds a ReLU in: `round` is monotone, so clamping at 0
/// equals `max(0)` after the clamp.
#[inline]
pub(crate) fn requantize_row<T: Accumulator>(
    acc: &[T],
    bias: i32,
    scale: f32,
    zp: i8,
    floor: i8,
    dst: &mut [i8],
) {
    debug_assert_eq!(acc.len(), dst.len());
    by_eight(acc, dst, |v| {
        #[cfg(target_arch = "x86_64")]
        {
            let [a, b] = T::load8(v);
            // SAFETY: SSE2 is in the x86-64 baseline.
            unsafe {
                sse2::stage8(sse2::affine(a, bias, scale), sse2::affine(b, bias, scale), zp, floor)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        v.map(|a| stage(a.to_i32().wrapping_add(bias) as f32 * scale, zp, floor))
    });
}

/// Runs `block` over `src` eight elements at a time, writing the matching
/// eight of `dst`. A ragged tail runs once more, zero-padded.
#[inline(always)]
fn by_eight<T: Copy + Default>(src: &[T], dst: &mut [i8], block: impl Fn(&[T; 8]) -> [i8; 8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (s, d) in s.by_ref().zip(d.by_ref()) {
        d.copy_from_slice(&block(s.try_into().expect("chunks of eight")));
    }
    let (s, d) = (s.remainder(), d.into_remainder());
    if !s.is_empty() {
        let mut pad = [T::default(); 8];
        pad[..s.len()].copy_from_slice(s);
        d.copy_from_slice(&block(&pad)[..s.len()]);
    }
}

/// The stage that ends every conversion to `i8`,
/// `clamp(round(x) + zp, floor, 127)`, on one value, where `f32::round` is
/// an instruction.
#[cfg(not(target_arch = "x86_64"))]
fn stage(x: f32, zp: i8, floor: i8) -> i8 {
    (x.round() + f32::from(zp)).clamp(f32::from(floor), 127.0) as i8
}

/// The output stage in SSE2 lanes. SSE2 is part of the x86-64 baseline, so
/// nothing here needs runtime detection. The functions are `unsafe fn`
/// only because these intrinsics are `unsafe` before Rust 1.87, and the
/// workspace supports 1.86.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128, __m128i, _mm_add_epi32, _mm_add_ps, _mm_and_ps, _mm_and_si128, _mm_andnot_ps,
        _mm_castps_si128, _mm_cmpeq_ps, _mm_cmpord_ps, _mm_cvtepi32_ps, _mm_max_ps, _mm_min_ps,
        _mm_mul_ps, _mm_or_ps, _mm_packs_epi16, _mm_packs_epi32, _mm_set1_epi32, _mm_set1_ps,
        _mm_storel_epi64, _mm_sub_epi32, _mm_sub_ps,
    };

    /// 1.5·2²³. Adding it to an integer-valued `f32` below 2²² in magnitude
    /// lands in `[2²³, 2²⁴)`, where the ulp is 1, so the integer sits in
    /// the low mantissa bits: subtracting `MAGIC`'s bits recovers it.
    const MAGIC: f32 = 12_582_912.0;

    /// `f32::round` on lanes below 2²³ in magnitude, bit for bit (−0.0
    /// included). `|x| + 2²³` keeps no fraction bits, so adding and
    /// subtracting 2²³ rounds `|x|` to the nearest integer, ties to even,
    /// and both steps are exact. `f32::round` sends ties away from zero: a
    /// tie that went down to even sits exactly one half below `|x|` (the
    /// difference is exact: by Sterbenz's lemma when the rounded value is
    /// at least 1, trivially when it is 0), and gets bumped by one.
    ///
    /// # Safety
    /// Needs SSE2, which every x86-64 CPU has.
    #[inline(always)]
    pub(super) unsafe fn round(x: __m128) -> __m128 {
        let sign = _mm_set1_ps(-0.0);
        let two23 = _mm_set1_ps(8_388_608.0);
        let a = _mm_andnot_ps(sign, x);
        let r = _mm_sub_ps(_mm_add_ps(a, two23), two23);
        let tie_down = _mm_cmpeq_ps(_mm_sub_ps(r, a), _mm_set1_ps(-0.5));
        let r = _mm_add_ps(r, _mm_and_ps(tie_down, _mm_set1_ps(1.0)));
        _mm_or_ps(r, _mm_and_ps(x, sign))
    }

    /// `(v + bias) as f32 · scale` on four lanes: the scalar formula's
    /// operations, each rounded once.
    ///
    /// # Safety
    /// Needs SSE2, which every x86-64 CPU has.
    #[inline(always)]
    pub(super) unsafe fn affine(v: __m128i, bias: i32, scale: f32) -> __m128 {
        let x = _mm_cvtepi32_ps(_mm_add_epi32(v, _mm_set1_epi32(bias)));
        _mm_mul_ps(x, _mm_set1_ps(scale))
    }

    /// `clamp(round(x) + zp, floor, 127)` on eight lanes. Clamping `x` to
    /// `[floor − zp, 127 − zp]` *before* rounding gives the scalar
    /// `clamp(round(x) + zp, floor, 127)`, because the bounds are integers
    /// and `round` is monotone. It also keeps every lane below 2²², as
    /// `round` and `MAGIC` need. `zp` rides in on `MAGIC`. A NaN lane
    /// clamps to the floor (`max` returns its second operand) and is then
    /// masked to 0, which is what `NaN as i8` gives.
    ///
    /// # Safety
    /// Needs SSE2, which every x86-64 CPU has.
    #[inline(always)]
    pub(super) unsafe fn stage8(a: __m128, b: __m128, zp: i8, floor: i8) -> [i8; 8] {
        let zp = f32::from(zp);
        let (lo, hi) = (_mm_set1_ps(f32::from(floor) - zp), _mm_set1_ps(127.0 - zp));
        let (magic, magic_bits) = (_mm_set1_ps(MAGIC + zp), _mm_set1_epi32(MAGIC.to_bits() as i32));
        let lanes = |x: __m128| {
            let r = round(_mm_min_ps(_mm_max_ps(x, lo), hi));
            let q = _mm_sub_epi32(_mm_castps_si128(_mm_add_ps(r, magic)), magic_bits);
            _mm_and_si128(q, _mm_castps_si128(_mm_cmpord_ps(x, x)))
        };
        let words = _mm_packs_epi32(lanes(a), lanes(b));
        let mut out = [0i8; 8];
        _mm_storel_epi64(out.as_mut_ptr().cast(), _mm_packs_epi16(words, words));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::shape::Shape4;

    #[test]
    fn symmetric_roundtrip_is_within_half_scale() {
        let p = QuantParams::symmetric(4.0);
        for &v in &[-4.0, -1.3, 0.0, 0.02, 3.999] {
            let rt = p.dequantize(p.quantize(v));
            assert!((rt - v).abs() <= p.scale / 2.0 + 1e-6, "v={v} rt={rt}");
        }
    }

    #[test]
    fn symmetric_handles_zero_range() {
        let p = QuantParams::symmetric(0.0);
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.dequantize(0), 0.0);
    }

    #[test]
    fn asymmetric_maps_lo_near_min() {
        let p = QuantParams::asymmetric(0.0, 6.0); // ReLU6-style range
        let q_lo = p.quantize(0.0);
        let q_hi = p.quantize(6.0);
        assert!(q_lo <= -127, "lo mapped to {q_lo}");
        assert!(q_hi >= 126, "hi mapped to {q_hi}");
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let p = QuantParams::symmetric(1.0);
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn new_rejects_zero_scale() {
        let _ = QuantParams::new(0.0, 0);
    }

    #[test]
    fn tensor_roundtrip_error_bounded() {
        let t =
            Tensor::from_vec(Shape4::new(1, 1, 1, 5), vec![-2.0, -0.5, 0.0, 1.25, 2.0]).unwrap();
        let p = calibrate_symmetric(&t);
        let rt = dequantize_tensor(&quantize_tensor(&t, p), p);
        assert!(t.max_abs_diff(&rt).unwrap() <= p.scale / 2.0 + 1e-6);
    }

    #[test]
    fn requantize_accumulator_clamps() {
        assert_eq!(requantize_accumulator(1 << 20, 1.0, 0), 127);
        assert_eq!(requantize_accumulator(-(1 << 20), 1.0, 0), -128);
        assert_eq!(requantize_accumulator(100, 0.01, 3), 4);
    }

    #[test]
    fn default_is_identity_over_int8() {
        let p = QuantParams::default();
        for q in [-128i8, -1, 0, 1, 127] {
            assert_eq!(p.quantize(f32::from(q)), q);
        }
    }

    /// Checks the lane-wise round against `f32::round` on `xs`, whose
    /// length is a multiple of four. Where `sse2::round`'s precondition
    /// `|x| < 2²³` fails, every `f32` is an integer, ±∞ or NaN, which
    /// `f32::round` returns unchanged, and so does the check.
    #[cfg(target_arch = "x86_64")]
    fn check_round(xs: &[f32]) {
        use std::arch::x86_64::_mm_storeu_ps;
        assert_eq!(xs.len() % 4, 0, "whole lanes only");
        let mut r = [0f32; 4];
        for x in xs.chunks_exact(4) {
            // SAFETY: SSE2 is in the x86-64 baseline; the load reads the
            // four values of `x` and the store writes the four of `r`.
            unsafe { _mm_storeu_ps(r.as_mut_ptr(), sse2::round(_mm_loadu_ps(x.as_ptr()))) };
            for i in 0..4 {
                let (x, want) = (x[i], x[i].round());
                let got = if x.abs() < 8_388_608.0 { r[i] } else { x };
                if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                    panic!(
                        "round({x:e} = {:#010x}): lanes {got:e}, f32::round {want:e}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// [`check_round`], plus the lane-wise `quantize_slice` against the
    /// scalar `quantize` at unit scale, so the stage's clamp, conversion
    /// and NaN mask see every input too.
    #[cfg(target_arch = "x86_64")]
    fn check_lanes(xs: &[f32]) {
        check_round(xs);
        let unit = QuantParams::default();
        let mut q = vec![0i8; xs.len()];
        unit.quantize_slice(xs, &mut q).unwrap();
        for (&x, &got) in xs.iter().zip(&q) {
            assert_eq!(got, unit.quantize(x), "quantize({x:e} = {:#010x})", x.to_bits());
        }
    }

    /// Every half-integer in `(−2²³, 2²³)` and the four `f32`s on either
    /// side of it — every tie and near-tie the 2²³ trick can meet — plus
    /// ±0, subnormals, the 2²³ boundary, ±∞ and NaN.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_round_matches_f32_round_at_every_half_integer() {
        let tiny = f32::from_bits(1);
        let two23 = 8_388_608.0f32;
        check_lanes(&[
            0.0,
            -0.0,
            0.5,
            -0.0,
            tiny,
            -tiny,
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            two23,
            -two23,
            two23.next_down(),
            two23.next_up(),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            -0.5,
        ]);
        // Four half-integers (and their neighbours) per batch keep the
        // batch a multiple of four; each thread takes one stretch of them.
        let threads = std::thread::available_parallelism().map_or(1, usize::from) as i32;
        let span = (1i32 << 24) / threads / 4 * 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let start = -(1i32 << 23) + t * span;
                let end = if t + 1 == threads { 1 << 23 } else { start + span };
                scope.spawn(move || {
                    let mut batch = [0f32; 36];
                    for k in (start..end).step_by(4) {
                        for (j, b) in batch.iter_mut().enumerate() {
                            let half = ((k + j as i32 / 9) as f32 + 0.5).to_bits();
                            *b = f32::from_bits(half - 4 + j as u32 % 9);
                        }
                        check_round(&batch);
                    }
                });
            }
        });
    }

    /// All 2³² bit patterns through [`check_lanes`]. About a minute in
    /// release on two cores:
    /// `cargo test --release -p sushi-tensor --lib -- --ignored every_bit_pattern`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn lanes_match_scalar_on_every_bit_pattern() {
        let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
        let span = (1u64 << 32).div_ceil(threads).next_multiple_of(4);
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let end = ((t + 1) * span).min(1 << 32);
                    let mut batch = Vec::with_capacity(1 << 16);
                    for bits in t * span..end {
                        batch.push(f32::from_bits(bits as u32));
                        if batch.len() == batch.capacity() {
                            check_lanes(&batch);
                            batch.clear();
                        }
                    }
                    check_lanes(&batch);
                });
            }
        });
    }

    #[test]
    fn quantize_slice_matches_quantize() {
        let mut rng = DetRng::new(29);
        let specials =
            [0.0, -0.0, 0.5, -0.5, 2.5, -2.5, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (scale, zp) in [(1.0, 0), (0.5, 3), (1.0 / 3.0, -7), (0.0371, 127), (7.0, -128)] {
            let p = QuantParams::new(scale, zp);
            let mut xs: Vec<f32> = (0..61).map(|_| rng.uniform_f32(-300.0, 300.0)).collect();
            // Exact ties of `x / scale`, then the specials.
            xs.extend((-300..300).map(|i| (i as f32 + 0.5) * scale));
            xs.extend(specials);
            let mut got = vec![0i8; xs.len()];
            p.quantize_slice(&xs, &mut got).unwrap();
            let want: Vec<i8> = xs.iter().map(|&x| p.quantize(x)).collect();
            assert_eq!(got, want, "scale {scale}, zp {zp}");
        }
        assert!(QuantParams::default().quantize_slice(&[1.0, 2.0], &mut [0i8; 3]).is_err());
    }

    #[test]
    fn requantize_row_matches_the_scalar_oracle() {
        let mut rng = DetRng::new(31);
        // Scales that make exact ties common, one ordinary, one tiny, and
        // one that overflows to ±∞ in `f32`.
        for scale in [0.5, 0.25, 1.0 / 3.0, 0.0037, 1e-6, 1e30] {
            for len in [0, 1, 7, 8, 9, 33] {
                let zp = rng.next_i8();
                let bias = rng.below(2001) as i32 - 1000;
                let acc: Vec<i32> =
                    (0..len).map(|_| (rng.next_u64() % 2001) as i32 - 1000).collect();
                let oracle: Vec<i8> =
                    acc.iter().map(|&a| requantize_accumulator(a + bias, scale, zp)).collect();
                let row = |acc: &[i32], floor| {
                    let mut dst = vec![0i8; len];
                    requantize_row(acc, bias, scale, zp, floor, &mut dst);
                    dst
                };
                assert_eq!(row(&acc, i8::MIN), oracle, "scale {scale}, zp {zp}");
                // A floor of 0 is the reference int8 ReLU.
                let relu: Vec<i8> = oracle.iter().map(|&q| q.max(0)).collect();
                assert_eq!(row(&acc, 0), relu, "ReLU floor, scale {scale}, zp {zp}");
                // The depthwise kernel's integer-valued `f32` sums agree.
                let acc_f32: Vec<f32> = acc.iter().map(|&a| a as f32).collect();
                let mut dst = vec![0i8; len];
                requantize_row(&acc_f32, bias, scale, zp, i8::MIN, &mut dst);
                assert_eq!(dst, oracle, "f32 accumulators, scale {scale}");
            }
        }
    }
}

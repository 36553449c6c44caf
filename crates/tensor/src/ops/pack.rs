//! Operand packing for the panel-blocked GEMM kernels (`crate::ops::gemm`).
//!
//! The microkernels in [`crate::ops::gemm`] never touch row-major operands:
//! both inputs are first repacked into panel layouts whose inner stride
//! matches the register tile, so every microkernel iteration loads exactly
//! `MR` contiguous A values and `NR` contiguous B values:
//!
//! ```text
//!   A (m × k, row-major)          packed A: row panels, k-major
//!   ┌───────────────┐             ┌ panel 0: a[0..MR) of col 0,
//!   │ r0 ──────────▶│             │          a[0..MR) of col 1, … (k steps)
//!   │ r1 ──────────▶│   pack_a    ├ panel 1: rows MR..2·MR, k-major
//!   │ …             │  ────────▶  ├ …
//!   └───────────────┘             └ last panel zero-padded to MR rows
//!
//!   B (k × n, row-major)          packed B: column panels, k-major
//!   ┌───────────────┐             ┌ panel 0: b[0..NR) of row 0,
//!   │ c0 c1 c2 …    │   pack_b    │          b[0..NR) of row 1, … (k steps)
//!   │ ▼  ▼  ▼       │  ────────▶  ├ panel 1: cols NR..2·NR, k-major
//!   └───────────────┘             └ last panel zero-padded to NR cols
//! ```
//!
//! For the quantized path the zero points are subtracted **at pack time**
//! (`i8 → i16` widening, so `a − zp` can never overflow): the microkernel
//! then runs plain `i32 += i16·i16` multiply-accumulates with no per-MAC
//! zero-point work, and padded cells become literal `0`, contributing
//! nothing — exactly the Zero-Subtraction semantics of the reference loops.
//!
//! Packing the *weight* operand (`A` in the conv-as-GEMM orientation used
//! here: `C[kg × npix] = W[kg × kdim] · patches[kdim × npix]`) is the
//! software mirror of the paper's SubGraph-Stationary insight: a SubGraph
//! cached on the accelerator serves every query until the scheduler swaps
//! it, so [`PackedConv2d`] panels built **once per cache install** are
//! reused by every subsequent forward pass. The activation-side operand
//! (`B`, the im2col patch matrix) is query-dependent and is packed per call
//! into reusable [`crate::arena::Arena`] scratch instead. A conv that has
//! no install-time panels packs its weights into the same scratch per call;
//! the arena counts those ([`crate::arena::Arena::weight_packs`]), so tests
//! pin pack-once-per-install by asserting the count stays zero under a
//! cache.

use crate::error::TensorError;
use crate::ops::conv::Conv2dParams;
use crate::quant::QuantParams;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Register-tile height: rows of `C` produced per microkernel call.
pub const MR: usize = 4;
/// Register-tile width: columns of `C` produced per microkernel call.
pub const NR: usize = 8;

/// Length of the packed-A buffer for an `m × k` operand: `ceil(m/MR)`
/// panels of `k·MR` elements (tail rows zero-padded).
#[must_use]
pub const fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length of the packed-B buffer for a `k × n` operand: `ceil(n/NR)`
/// panels of `k·NR` elements (tail columns zero-padded).
#[must_use]
pub const fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Length of the pair-interleaved packed-A buffer for an `m × k` operand:
/// `ceil(m/MR)` panels of `ceil(k/2)·MR·2` elements (odd reduction depths
/// pad the final k-pair with a zero).
#[must_use]
pub const fn packed_a_pairs_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k.div_ceil(2) * 2
}

/// Length of the pair-interleaved packed-B buffer for a `k × n` operand:
/// `ceil(n/NR)` panels of `ceil(k/2)·NR·2` elements.
#[must_use]
pub const fn packed_b_pairs_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k.div_ceil(2) * 2
}

fn check_len(actual: usize, expected: usize) -> Result<(), TensorError> {
    if actual != expected {
        return Err(TensorError::LengthMismatch { expected, actual });
    }
    Ok(())
}

/// Packs row-major `a` (`m × k`, f32) into MR-row panels, k-major within
/// each panel. Tail rows of the last panel are written as `0.0`.
///
/// # Errors
/// Returns an error if `a` or `dst` have the wrong length.
pub fn pack_a_f32_into(dst: &mut [f32], a: &[f32], m: usize, k: usize) -> Result<(), TensorError> {
    check_len(a.len(), m * k)?;
    check_len(dst.len(), packed_a_len(m, k))?;
    for (p, panel) in dst.chunks_exact_mut(MR * k).enumerate() {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        for kk in 0..k {
            let cell = &mut panel[kk * MR..kk * MR + MR];
            for (r, c) in cell.iter_mut().enumerate() {
                *c = if r < rows { a[(i0 + r) * k + kk] } else { 0.0 };
            }
        }
    }
    Ok(())
}

/// Packs row-major `a` (`m × k`, i8) into MR-row panels with the zero point
/// subtracted into widened `i16` cells. Tail rows become `0` (a value that
/// cannot perturb any accumulator).
///
/// # Errors
/// Returns an error if `a` or `dst` have the wrong length.
pub fn pack_a_i8_into(
    dst: &mut [i16],
    a: &[i8],
    zp: i8,
    m: usize,
    k: usize,
) -> Result<(), TensorError> {
    check_len(a.len(), m * k)?;
    check_len(dst.len(), packed_a_len(m, k))?;
    let zp = i16::from(zp);
    for (p, panel) in dst.chunks_exact_mut(MR * k).enumerate() {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        for kk in 0..k {
            let cell = &mut panel[kk * MR..kk * MR + MR];
            for (r, c) in cell.iter_mut().enumerate() {
                *c = if r < rows { i16::from(a[(i0 + r) * k + kk]) - zp } else { 0 };
            }
        }
    }
    Ok(())
}

/// Packs row-major `a` (`m × k`, i8) into MR-row panels whose k steps are
/// **pair-interleaved**: each panel stores, per k-pair, `MR` adjacent
/// `[a(r,2t), a(r,2t+1)]` pairs. This is the operand layout of the
/// `pmaddwd` microkernel ([`crate::ops::gemm::gemm_i8_packed_pairs`]),
/// which multiplies 16 `i16` pairs per instruction; a broadcast of one
/// 32-bit pair feeds a whole B vector. Zero point is subtracted into the
/// widened `i16` cells; tail rows and the odd-`k` pad pair become `0`.
///
/// # Errors
/// Returns an error if `a` or `dst` have the wrong length.
pub fn pack_a_i8_pairs_into(
    dst: &mut [i16],
    a: &[i8],
    zp: i8,
    m: usize,
    k: usize,
) -> Result<(), TensorError> {
    check_len(a.len(), m * k)?;
    check_len(dst.len(), packed_a_pairs_len(m, k))?;
    let zp = i16::from(zp);
    let kpairs = k.div_ceil(2);
    for (p, panel) in dst.chunks_exact_mut(MR * kpairs * 2).enumerate() {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        for kp in 0..kpairs {
            let cell = &mut panel[kp * MR * 2..(kp + 1) * MR * 2];
            for r in 0..MR {
                for half in 0..2 {
                    let kk = kp * 2 + half;
                    cell[r * 2 + half] =
                        if r < rows && kk < k { i16::from(a[(i0 + r) * k + kk]) - zp } else { 0 };
                }
            }
        }
    }
    Ok(())
}

/// Packs row-major `b` (`k × n`, f32) into NR-column panels, k-major within
/// each panel. Tail columns of the last panel are written as `0.0`.
///
/// # Errors
/// Returns an error if `b` or `dst` have the wrong length.
pub fn pack_b_f32_into(dst: &mut [f32], b: &[f32], k: usize, n: usize) -> Result<(), TensorError> {
    check_len(b.len(), k * n)?;
    check_len(dst.len(), packed_b_len(k, n))?;
    for (p, panel) in dst.chunks_exact_mut(NR * k).enumerate() {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + cols];
            let cell = &mut panel[kk * NR..kk * NR + NR];
            cell[..cols].copy_from_slice(src);
            cell[cols..].fill(0.0);
        }
    }
    Ok(())
}

/// Packs row-major `b` (`k × n`, i8) into NR-column panels with the zero
/// point subtracted into widened `i16` cells; tail columns become `0`.
///
/// # Errors
/// Returns an error if `b` or `dst` have the wrong length.
pub fn pack_b_i8_into(
    dst: &mut [i16],
    b: &[i8],
    zp: i8,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    check_len(b.len(), k * n)?;
    check_len(dst.len(), packed_b_len(k, n))?;
    let zp = i16::from(zp);
    for (p, panel) in dst.chunks_exact_mut(NR * k).enumerate() {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + cols];
            let cell = &mut panel[kk * NR..kk * NR + NR];
            for (c, &v) in cell[..cols].iter_mut().zip(src) {
                *c = i16::from(v) - zp;
            }
            cell[cols..].fill(0);
        }
    }
    Ok(())
}

/// Packs row-major `b` (`k × n`, i8) into **pair-interleaved** NR-column
/// panels: each panel stores, per k-pair, `NR` adjacent
/// `[b(2t,j), b(2t+1,j)]` pairs — one 256-bit load per k-pair for the
/// `pmaddwd` microkernel. Zero point is subtracted into the widened `i16`
/// cells; tail columns and the odd-`k` pad pair become `0`.
///
/// # Errors
/// Returns an error if `b` or `dst` have the wrong length.
pub fn pack_b_i8_pairs_into(
    dst: &mut [i16],
    b: &[i8],
    zp: i8,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    check_len(b.len(), k * n)?;
    check_len(dst.len(), packed_b_pairs_len(k, n))?;
    let zp = i16::from(zp);
    let kpairs = k.div_ceil(2);
    for (p, panel) in dst.chunks_exact_mut(NR * kpairs * 2).enumerate() {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        for kp in 0..kpairs {
            let k0 = kp * 2;
            let cell = &mut panel[kp * NR * 2..(kp + 1) * NR * 2];
            let r0 = &b[k0 * n + j0..k0 * n + j0 + cols];
            let r1 = (k0 + 1 < k).then(|| &b[(k0 + 1) * n + j0..(k0 + 1) * n + j0 + cols]);
            for j in 0..cols {
                cell[j * 2] = i16::from(r0[j]) - zp;
                cell[j * 2 + 1] = r1.map_or(0, |r| i16::from(r[j]) - zp);
            }
            cell[cols * 2..].fill(0);
        }
    }
    Ok(())
}

/// An owned, panel-packed A operand (`m × k`, MR-row panels).
///
/// For the quantized path the cells are zero-point-subtracted `i16`; see
/// the module docs for the exact layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedA<T> {
    data: Vec<T>,
    m: usize,
    k: usize,
}

impl PackedA<f32> {
    /// Packs a row-major `m × k` f32 matrix.
    ///
    /// # Errors
    /// Returns an error if `a.len() != m * k`.
    pub fn from_f32(a: &[f32], m: usize, k: usize) -> Result<Self, TensorError> {
        let mut data = vec![0.0; packed_a_len(m, k)];
        pack_a_f32_into(&mut data, a, m, k)?;
        Ok(Self { data, m, k })
    }
}

impl PackedA<i16> {
    /// Packs a row-major `m × k` i8 matrix with its zero point subtracted.
    ///
    /// # Errors
    /// Returns an error if `a.len() != m * k`.
    pub fn from_i8(a: &[i8], zp: i8, m: usize, k: usize) -> Result<Self, TensorError> {
        let mut data = vec![0; packed_a_len(m, k)];
        pack_a_i8_into(&mut data, a, zp, m, k)?;
        Ok(Self { data, m, k })
    }
}

impl<T> PackedA<T> {
    /// The packed panel data.
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Logical row count `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction depth `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

/// An owned, panel-packed B operand (`k × n`, NR-column panels).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB<T> {
    data: Vec<T>,
    k: usize,
    n: usize,
}

impl PackedB<f32> {
    /// Packs a row-major `k × n` f32 matrix.
    ///
    /// # Errors
    /// Returns an error if `b.len() != k * n`.
    pub fn from_f32(b: &[f32], k: usize, n: usize) -> Result<Self, TensorError> {
        let mut data = vec![0.0; packed_b_len(k, n)];
        pack_b_f32_into(&mut data, b, k, n)?;
        Ok(Self { data, k, n })
    }
}

impl PackedB<i16> {
    /// Packs a row-major `k × n` i8 matrix with its zero point subtracted.
    ///
    /// # Errors
    /// Returns an error if `b.len() != k * n`.
    pub fn from_i8(b: &[i8], zp: i8, k: usize, n: usize) -> Result<Self, TensorError> {
        let mut data = vec![0; packed_b_len(k, n)];
        pack_b_i8_into(&mut data, b, zp, k, n)?;
        Ok(Self { data, k, n })
    }
}

impl<T> PackedB<T> {
    /// The packed panel data.
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Reduction depth `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical column count `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

/// The panel layout a packed operand was built in.
///
/// `Panel` is the classic k-major layout read by the `mullo`-based
/// microkernel; `KPair` interleaves adjacent k steps so the `pmaddwd`
/// microkernel ([`crate::ops::gemm::gemm_i8_packed_pairs`]) retires 16
/// multiply-accumulates per instruction. The IR lowering (`sushi-ir`)
/// selects the layout per conv at cache-install time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackLayout {
    /// k-major MR/NR panels (one value per k step).
    #[default]
    Panel,
    /// Pair-interleaved panels (two adjacent k steps per cell).
    KPair,
}

/// Pre-packed int8 convolution weights: one zero-point-subtracted packed-A
/// block per group, concatenated, ready for
/// [`crate::ops::conv::conv2d_i8_prepacked`] (layout `Panel`) or
/// [`crate::ops::conv::conv2d_i8_fused`] (layout `KPair`).
///
/// Packing happens once (per SubGraph install on the serving path); every
/// subsequent query's GEMM reads the panels directly. The group `g` block
/// is the packed form of the group's `kg × (cg·R·S)` weight matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv2d {
    data: Vec<i16>,
    wshape: Shape4,
    w_q: QuantParams,
    groups: usize,
    group_stride: usize,
    layout: PackLayout,
}

impl PackedConv2d {
    /// Packs conv weights shaped `(K, C/groups, R, S)` for reuse across
    /// queries, in the classic [`PackLayout::Panel`] layout.
    ///
    /// # Errors
    /// Returns an error when `weights`/`params` are inconsistent (groups
    /// not dividing `K`, zero groups).
    pub fn pack(
        weights: &Tensor<i8>,
        w_q: QuantParams,
        params: &Conv2dParams,
    ) -> Result<Self, TensorError> {
        Self::pack_with_layout(weights, w_q, params, PackLayout::Panel)
    }

    /// [`PackedConv2d::pack`] with an explicit panel layout.
    ///
    /// # Errors
    /// Returns an error when `weights`/`params` are inconsistent (groups
    /// not dividing `K`, zero groups).
    pub fn pack_with_layout(
        weights: &Tensor<i8>,
        w_q: QuantParams,
        params: &Conv2dParams,
        layout: PackLayout,
    ) -> Result<Self, TensorError> {
        let wshape = weights.shape();
        if params.groups == 0 {
            return Err(TensorError::InvalidParam { what: "groups must be nonzero" });
        }
        if !wshape.n.is_multiple_of(params.groups) {
            return Err(TensorError::InvalidParam { what: "channels not divisible by groups" });
        }
        if wshape.h != params.kernel_h || wshape.w != params.kernel_w {
            // rhs carries the kernel dims `params` expected, so the error
            // names both sides of the mismatch.
            return Err(TensorError::ShapeMismatch {
                what: "kernel spatial dims",
                lhs: wshape,
                rhs: Shape4::new(wshape.n, wshape.c, params.kernel_h, params.kernel_w),
            });
        }
        let kg = wshape.n / params.groups;
        let kdim = wshape.c * wshape.h * wshape.w;
        let group_stride = match layout {
            PackLayout::Panel => packed_a_len(kg, kdim),
            PackLayout::KPair => packed_a_pairs_len(kg, kdim),
        };
        let mut data = vec![0i16; group_stride * params.groups];
        let wdata = weights.as_slice();
        for g in 0..params.groups {
            let dst = &mut data[g * group_stride..(g + 1) * group_stride];
            let src = &wdata[g * kg * kdim..(g + 1) * kg * kdim];
            match layout {
                PackLayout::Panel => pack_a_i8_into(dst, src, w_q.zero_point, kg, kdim)?,
                PackLayout::KPair => pack_a_i8_pairs_into(dst, src, w_q.zero_point, kg, kdim)?,
            }
        }
        Ok(Self { data, wshape, w_q, groups: params.groups, group_stride, layout })
    }

    /// The panel layout the weights were packed in.
    #[must_use]
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// The packed-A block for group `g` (`kg × kdim` panels).
    ///
    /// # Panics
    /// Panics if `g >= groups`.
    #[must_use]
    pub fn group(&self, g: usize) -> &[i16] {
        &self.data[g * self.group_stride..(g + 1) * self.group_stride]
    }

    /// The original weight tensor shape `(K, C/groups, R, S)`.
    #[must_use]
    pub fn wshape(&self) -> Shape4 {
        self.wshape
    }

    /// The weight quantization the panels were packed under.
    #[must_use]
    pub fn w_q(&self) -> QuantParams {
        self.w_q
    }

    /// Number of groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Bytes held by the packed panels.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_a_layout_is_k_major_with_zero_tail() {
        // 5×3 matrix: panel 0 holds rows 0..4, panel 1 holds row 4 + pads.
        let a: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let p = PackedA::from_f32(&a, 5, 3).unwrap();
        assert_eq!(p.data().len(), packed_a_len(5, 3));
        // Panel 0, k step 1 => rows 0..4 of column 1: a[1], a[4], a[7], a[10].
        assert_eq!(&p.data()[4..8], &[1.0, 4.0, 7.0, 10.0]);
        // Panel 1, k step 0 => row 4 col 0, then three pad rows.
        assert_eq!(&p.data()[12..16], &[12.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn packed_b_layout_is_k_major_with_zero_tail() {
        // 2×10 matrix: panel 0 = cols 0..8, panel 1 = cols 8..10 + pads.
        let b: Vec<f32> = (0..20).map(|v| v as f32).collect();
        let p = PackedB::from_f32(&b, 2, 10).unwrap();
        assert_eq!(p.data().len(), packed_b_len(2, 10));
        // Panel 0, k step 1 => cols 0..8 of row 1.
        assert_eq!(&p.data()[8..16], &b[10..18]);
        // Panel 1, k step 0 => cols 8..10 of row 0, then six pads.
        assert_eq!(&p.data()[16..24], &[8.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn i8_pack_subtracts_zero_point_exactly() {
        let a = [i8::MIN, -1, 0, 1, i8::MAX, 7];
        let p = PackedA::from_i8(&a, 7, 2, 3).unwrap();
        // Row 0 col 0 = -128 - 7 = -135 (unrepresentable in i8, exact in i16).
        assert_eq!(p.data()[0], -135);
        // A cell equal to the zero point (row 1, col 2) packs to exactly 0.
        assert_eq!(p.data()[2 * MR + 1], 0);
    }

    /// Only a conv that packs its weight operand per call is counted by the
    /// arena it packs into: install-time panels, the activation-side pack
    /// and the direct loops leave [`Arena::weight_packs`] alone.
    #[test]
    fn arena_counts_per_call_weight_packs_only() {
        use crate::arena::Arena;
        use crate::ops::conv::{conv2d_i8_in, conv2d_i8_prepacked};
        use crate::ops::gemm::KernelPolicy;
        let q = QuantParams::new(1.0, 0);
        let x = Tensor::from_vec(Shape4::new(1, 2, 2, 2), (1..=8).collect()).unwrap();
        let w = Tensor::from_vec(Shape4::new(3, 2, 1, 1), vec![1i8, 2, 3, 4, 5, 6]).unwrap();
        let params = Conv2dParams::new(1, 1);
        let mut arena = Arena::new();
        let conv = |arena: &mut Arena, policy| {
            conv2d_i8_in(&x, q, &w, q, None, q, &params, policy, arena).unwrap()
        };
        let naive = conv(&mut arena, KernelPolicy::Naive);
        assert_eq!(arena.weight_packs(), 0, "direct loops pack nothing");
        let panels = PackedConv2d::pack(&w, q, &params).unwrap();
        let prepacked = conv2d_i8_prepacked(&x, q, &panels, None, q, &params, &mut arena).unwrap();
        assert_eq!(arena.weight_packs(), 0, "install-time panels are read in place");
        let gemm = conv(&mut arena, KernelPolicy::Im2colGemm);
        assert_eq!(arena.weight_packs(), 1, "raw weights pack once per call");
        assert_eq!(naive, prepacked);
        assert_eq!(naive, gemm);
    }

    #[test]
    fn wrong_lengths_are_errors_not_panics() {
        assert!(PackedA::from_f32(&[0.0; 3], 2, 2).is_err());
        assert!(PackedB::from_i8(&[0; 5], 0, 2, 2).is_err());
        let mut dst = vec![0i16; packed_a_pairs_len(2, 3) + 1];
        assert!(pack_a_i8_pairs_into(&mut dst, &[0; 6], 0, 2, 3).is_err());
    }

    #[test]
    fn pair_pack_a_interleaves_adjacent_k_steps() {
        // 2×3 matrix, rows [1,2,3] / [4,5,6]; kpairs = 2 with a zero pad.
        let a = [1i8, 2, 3, 4, 5, 6];
        let mut dst = vec![0i16; packed_a_pairs_len(2, 3)];
        pack_a_i8_pairs_into(&mut dst, &a, 0, 2, 3).unwrap();
        // k-pair 0: [a(0,0),a(0,1), a(1,0),a(1,1), pad rows...].
        assert_eq!(&dst[..MR * 2], &[1, 2, 4, 5, 0, 0, 0, 0]);
        // k-pair 1: [a(0,2),0, a(1,2),0, ...] — odd k pads the pair.
        assert_eq!(&dst[MR * 2..MR * 4], &[3, 0, 6, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn pair_pack_b_interleaves_adjacent_k_steps() {
        // 3×2 matrix (k=3, n=2): rows [1,2]/[3,4]/[5,6].
        let b = [1i8, 2, 3, 4, 5, 6];
        let mut dst = vec![0i16; packed_b_pairs_len(3, 2)];
        pack_b_i8_pairs_into(&mut dst, &b, 0, 3, 2).unwrap();
        // k-pair 0, cols 0..2: [b(0,0),b(1,0), b(0,1),b(1,1), pads...].
        assert_eq!(&dst[..6], &[1, 3, 2, 4, 0, 0]);
        // k-pair 1: [b(2,0),0, b(2,1),0, ...].
        assert_eq!(&dst[NR * 2..NR * 2 + 4], &[5, 0, 6, 0]);
    }

    #[test]
    fn pair_pack_subtracts_zero_point_and_zeroes_pads() {
        let b = [10i8, 10, 10, 10]; // 2×2, all equal to zp
        let mut dst = vec![0xAAu16 as i16; packed_b_pairs_len(2, 2)];
        pack_b_i8_pairs_into(&mut dst, &b, 10, 2, 2).unwrap();
        assert!(dst.iter().all(|&v| v == 0), "zp cells and pads must pack to 0");
    }

    #[test]
    fn packed_conv_kpair_layout_round_trips() {
        let wshape = Shape4::new(2, 3, 1, 1); // kg=2, kdim=3
        let w = Tensor::from_vec(wshape, vec![1i8, 2, 3, 4, 5, 6]).unwrap();
        let params = Conv2dParams::new(1, 1);
        let p = PackedConv2d::pack_with_layout(
            &w,
            QuantParams::new(1.0, 0),
            &params,
            PackLayout::KPair,
        )
        .unwrap();
        assert_eq!(p.layout(), PackLayout::KPair);
        assert_eq!(p.group(0).len(), packed_a_pairs_len(2, 3));
        assert_eq!(&p.group(0)[..MR * 2], &[1, 2, 4, 5, 0, 0, 0, 0]);
        let panel = PackedConv2d::pack(&w, QuantParams::new(1.0, 0), &params).unwrap();
        assert_eq!(panel.layout(), PackLayout::Panel);
    }

    #[test]
    fn packed_conv_groups_are_independent_blocks() {
        let wshape = Shape4::new(4, 2, 1, 1); // 2 groups of kg=2, kdim=2
        let w = Tensor::from_vec(wshape, vec![1i8, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let params = Conv2dParams::new(1, 1).with_groups(2);
        let p = PackedConv2d::pack(&w, QuantParams::new(1.0, 0), &params).unwrap();
        assert_eq!(p.groups(), 2);
        // Group 1's first k-step holds rows {5,6..} column 0 => [5, 7, pad, pad].
        assert_eq!(&p.group(1)[..4], &[5, 7, 0, 0]);
    }

    #[test]
    fn packed_conv_rejects_bad_groups() {
        let w = Tensor::<i8>::zeros(Shape4::new(3, 1, 1, 1));
        let params = Conv2dParams::new(1, 1).with_groups(2);
        assert!(PackedConv2d::pack(&w, QuantParams::new(1.0, 0), &params).is_err());
    }
}

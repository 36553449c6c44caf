//! Operand packing for the k-pair GEMM kernel (`crate::ops::gemm`).
//!
//! The microkernel in [`crate::ops::gemm`] never touches row-major
//! operands: both inputs are first repacked into panels whose inner stride
//! matches the register tile, with adjacent reduction steps interleaved in
//! pairs, so every microkernel iteration loads `MR` contiguous A pairs and
//! `NR` contiguous B pairs — the operands of one `pmaddwd` per A row:
//!
//! ```text
//!   A (m × k, row-major)          packed A: MR-row panels, one cell per k-pair
//!   ┌───────────────┐             ┌ panel 0: [a(0,0) a(0,1)] [a(1,0) a(1,1)] …
//!   │ r0 ──────────▶│             │          (MR pairs), then k-pair 1, …
//!   │ r1 ──────────▶│   pack_a    ├ panel 1: rows MR..2·MR, same order
//!   │ …             │  ────────▶  ├ …
//!   └───────────────┘             └ tail rows and an odd k's last half are 0
//!
//!   B (k × n, row-major)          packed B: NR-column panels, one cell per k-pair
//!   ┌───────────────┐             ┌ panel 0: [b(0,0) b(1,0)] [b(0,1) b(1,1)] …
//!   │ c0 c1 c2 …    │   pack_b    │          (NR pairs), then k-pair 1, …
//!   │ ▼  ▼  ▼       │  ────────▶  ├ panel 1: cols NR..2·NR, same order
//!   └───────────────┘             └ tail cols and an odd k's last half are 0
//! ```
//!
//! The zero points are subtracted **at pack time** (`i8 → i16` widening, so
//! `a − zp` can never overflow): the microkernel then runs plain
//! `i32 += i16·i16` multiply-accumulates with no per-MAC zero-point work,
//! and padded cells become literal `0`, contributing nothing — exactly the
//! Zero-Subtraction semantics of the reference loops.
//!
//! Packing the *weight* operand (`A` in the conv-as-GEMM orientation used
//! here: `C[kg × npix] = W[kg × kdim] · patches[kdim × npix]`) is the
//! software mirror of the paper's SubGraph-Stationary insight: a SubGraph
//! cached on the accelerator serves every query until the scheduler swaps
//! it, so [`PackedConv2d`] panels built **once per cache install** are
//! reused by every subsequent forward pass. The activation-side operand
//! (`B`, the im2col patch matrix) is query-dependent and is packed per call
//! into reusable [`crate::arena::Arena`] scratch instead. An unfused conv
//! given no install-time panels packs a [`PackedConv2d`] per call; the
//! arena counts those ([`crate::arena::Arena::weight_packs`]), so tests pin
//! pack-once-per-install by asserting the count stays zero under a cache.

use crate::error::TensorError;
use crate::ops::conv::Conv2dParams;
use crate::quant::QuantParams;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Register-tile height: rows of `C` produced per microkernel call.
pub const MR: usize = 4;
/// Register-tile width: columns of `C` produced per microkernel call.
pub const NR: usize = 8;

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
        if rows == MR {
            let src: [&[i8]; MR] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
            for (kp, cell) in panel.chunks_exact_mut(MR * 2).take(k / 2).enumerate() {
                for (pair, row) in cell.chunks_exact_mut(2).zip(src) {
                    pair[0] = i16::from(row[kp * 2]) - zp;
                    pair[1] = i16::from(row[kp * 2 + 1]) - zp;
                }
            }
            if k % 2 == 1 {
                let cell = &mut panel[(kpairs - 1) * MR * 2..];
                for (pair, row) in cell.chunks_exact_mut(2).zip(src) {
                    pair[0] = i16::from(row[k - 1]) - zp;
                    pair[1] = 0;
                }
            }
            continue;
        }
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
    pack_b_panels(dst, b, zp, k, n, 0);
    Ok(())
}

/// [`pack_b_i8_pairs_into`] with the lengths already right, for a run of
/// whole panels: `dst` holds the packed panels `first..`, as many as fit.
/// The conv prologue splits one packed B into such runs, one per part.
pub(crate) fn pack_b_panels(dst: &mut [i16], b: &[i8], zp: i8, k: usize, n: usize, first: usize) {
    let zp = i16::from(zp);
    let kpairs = k.div_ceil(2);
    debug_assert_eq!(dst.len() % (NR * kpairs * 2).max(1), 0);
    for (p, panel) in (first..).zip(dst.chunks_exact_mut(NR * kpairs * 2)) {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        for kp in 0..kpairs {
            let k0 = kp * 2;
            let cell = &mut panel[kp * NR * 2..(kp + 1) * NR * 2];
            if cols == NR && k0 + 1 < k {
                let r0: &[i8; NR] = b[k0 * n + j0..][..NR].try_into().expect("NR columns");
                let r1: &[i8; NR] = b[(k0 + 1) * n + j0..][..NR].try_into().expect("NR columns");
                for ((pair, &x0), &x1) in cell.chunks_exact_mut(2).zip(r0).zip(r1) {
                    pair[0] = i16::from(x0) - zp;
                    pair[1] = i16::from(x1) - zp;
                }
                continue;
            }
            let r0 = &b[k0 * n + j0..k0 * n + j0 + cols];
            let r1 = (k0 + 1 < k).then(|| &b[(k0 + 1) * n + j0..(k0 + 1) * n + j0 + cols]);
            for j in 0..cols {
                cell[j * 2] = i16::from(r0[j]) - zp;
                cell[j * 2 + 1] = r1.map_or(0, |r| i16::from(r[j]) - zp);
            }
            cell[cols * 2..].fill(0);
        }
    }
}

/// The conv entry point a [`PackedConv2d`] is for.
///
/// Both variants hold the same pair-interleaved panels, built by
/// [`pack_a_i8_pairs_into`]; the tag only says who may read them.
/// [`crate::ops::conv::conv2d_i8_in`] accepts `Panel` panels and
/// [`crate::ops::conv::conv2d_i8_fused`] accepts `KPair` ones, and each
/// rejects the other. The IR lowering (`sushi-ir`) picks the tag per conv
/// at cache-install time, and with it the `Step::Conv` or `Step::FusedConv`
/// that reads the pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackLayout {
    /// Panels for the unfused conv, [`crate::ops::conv::conv2d_i8_in`].
    #[default]
    Panel,
    /// Panels for the fused conv, [`crate::ops::conv::conv2d_i8_fused`].
    KPair,
}

/// Pre-packed int8 convolution weights: one zero-point-subtracted,
/// pair-interleaved packed-A block per group, concatenated, ready for
/// [`crate::ops::conv::conv2d_i8_in`] (tag `Panel`) or
/// [`crate::ops::conv::conv2d_i8_fused`] (tag `KPair`).
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
    /// queries by the entry point `layout` names.
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
        let group_stride = packed_a_pairs_len(kg, kdim);
        let mut data = vec![0i16; group_stride * params.groups];
        let wdata = weights.as_slice();
        for g in 0..params.groups {
            let dst = &mut data[g * group_stride..(g + 1) * group_stride];
            let src = &wdata[g * kg * kdim..(g + 1) * kg * kdim];
            pack_a_i8_pairs_into(dst, src, w_q.zero_point, kg, kdim)?;
        }
        Ok(Self { data, wshape, w_q, groups: params.groups, group_stride, layout })
    }

    /// The conv entry point the weights were packed for.
    #[must_use]
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// Checks that these panels are tagged [`PackLayout::Panel`] and stand
    /// for weights shaped `wshape`, packed under `w_q` for `groups` groups —
    /// i.e. that the unfused conv may read them in place of those raw
    /// weights. The direct loops read the raw weights and the GEMM reads the
    /// panels, so a mismatch would let the kernel policy change the numbers.
    ///
    /// # Errors
    /// Returns an error naming the first property that disagrees.
    pub fn check_panels_of(
        &self,
        wshape: Shape4,
        w_q: QuantParams,
        groups: usize,
    ) -> Result<(), TensorError> {
        if self.wshape != wshape {
            return Err(TensorError::ShapeMismatch {
                what: "packed weights vs raw weights",
                lhs: self.wshape,
                rhs: wshape,
            });
        }
        if self.w_q != w_q {
            return Err(TensorError::InvalidParam {
                what: "packed weights built under another w_q",
            });
        }
        if self.groups != groups {
            return Err(TensorError::InvalidParam {
                what: "packed weights built for other groups",
            });
        }
        if self.layout != PackLayout::Panel {
            return Err(TensorError::InvalidParam {
                what: "k-pair packed weights require the fused conv entry point",
            });
        }
        Ok(())
    }

    /// The packed-A block for group `g` (`kg × kdim` pair-interleaved
    /// panels).
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
        let a: Vec<i8> = (0..15).collect();
        let mut p = vec![0i16; packed_a_pairs_len(5, 3)];
        pack_a_i8_pairs_into(&mut p, &a, 0, 5, 3).unwrap();
        // Panel 0, k-pair 1 => column 2 of rows 0..4, each paired with the
        // odd k's zero pad.
        assert_eq!(&p[8..16], &[2, 0, 5, 0, 8, 0, 11, 0]);
        // Panel 1, k-pair 0 => row 4's columns 0..2, then three pad rows.
        assert_eq!(&p[16..24], &[12, 13, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn packed_b_layout_is_k_major_with_zero_tail() {
        // 2×10 matrix: panel 0 = cols 0..8, panel 1 = cols 8..10 + pads.
        let b: Vec<i8> = (0..20).collect();
        let mut p = vec![0i16; packed_b_pairs_len(2, 10)];
        pack_b_i8_pairs_into(&mut p, &b, 0, 2, 10).unwrap();
        // Panel 0, k-pair 0 => rows 0 and 1 of cols 0..8, paired per column.
        assert_eq!(&p[..16], &[0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5, 15, 6, 16, 7, 17]);
        // Panel 1, k-pair 0 => cols 8..10, then six pad columns.
        assert_eq!(&p[16..20], &[8, 18, 9, 19]);
        assert!(p[20..32].iter().all(|&v| v == 0));
    }

    #[test]
    fn i8_pack_subtracts_zero_point_exactly() {
        let a = [i8::MIN, -1, 0, 1, i8::MAX, 7];
        let mut p = vec![0i16; packed_a_pairs_len(2, 3)];
        pack_a_i8_pairs_into(&mut p, &a, 7, 2, 3).unwrap();
        // Row 0 col 0 = -128 - 7 = -135 (unrepresentable in i8, exact in i16).
        assert_eq!(p[0], -135);
        // A cell equal to the zero point (row 1, col 2) packs to exactly 0.
        assert_eq!(p[MR * 2 + 2], 0);
    }

    /// Only a conv that packs its weight operand per call is counted, by
    /// the arena of that call: install-time panels, the activation-side
    /// pack and the direct loops leave [`Arena::weight_packs`] alone.
    #[test]
    fn arena_counts_per_call_weight_packs_only() {
        use crate::arena::Arena;
        use crate::ops::conv::conv2d_i8_in;
        use crate::ops::gemm::KernelPolicy;
        let q = QuantParams::new(1.0, 0);
        let x = Tensor::from_vec(Shape4::new(1, 2, 2, 2), (1..=8).collect()).unwrap();
        let w = Tensor::from_vec(Shape4::new(3, 2, 1, 1), vec![1i8, 2, 3, 4, 5, 6]).unwrap();
        let params = Conv2dParams::new(1, 1);
        let panels = PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::Panel).unwrap();
        let mut arena = Arena::new();
        let conv = |arena: &mut Arena, packed, policy| {
            conv2d_i8_in(&x, q, &w, q, packed, None, q, &params, policy, arena).unwrap()
        };
        let naive = conv(&mut arena, None, KernelPolicy::Naive);
        assert_eq!(arena.weight_packs(), 0, "direct loops pack nothing");
        let prepacked = conv(&mut arena, Some(&panels), KernelPolicy::Im2colGemm);
        assert_eq!(arena.weight_packs(), 0, "install-time panels are read in place");
        let gemm = conv(&mut arena, None, KernelPolicy::Im2colGemm);
        assert_eq!(arena.weight_packs(), 1, "raw weights pack once per call");
        assert_eq!(naive, prepacked);
        assert_eq!(naive, gemm);
    }

    #[test]
    fn wrong_lengths_are_errors_not_panics() {
        let mut dst = vec![0i16; packed_a_pairs_len(2, 2)];
        assert!(pack_a_i8_pairs_into(&mut dst, &[0; 3], 0, 2, 2).is_err());
        let mut dst = vec![0i16; packed_b_pairs_len(2, 2)];
        assert!(pack_b_i8_pairs_into(&mut dst, &[0; 5], 0, 2, 2).is_err());
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
        let (q, params) = (QuantParams::new(1.0, 0), Conv2dParams::new(1, 1));
        let p = PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::KPair).unwrap();
        assert_eq!(p.layout(), PackLayout::KPair);
        assert_eq!(p.group(0).len(), packed_a_pairs_len(2, 3));
        assert_eq!(&p.group(0)[..MR * 2], &[1, 2, 4, 5, 0, 0, 0, 0]);
        let panel = PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::Panel).unwrap();
        assert_eq!(panel.layout(), PackLayout::Panel);
    }

    #[test]
    fn packed_conv_groups_are_independent_blocks() {
        let wshape = Shape4::new(4, 2, 1, 1); // 2 groups of kg=2, kdim=2
        let w = Tensor::from_vec(wshape, vec![1i8, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let (q, params) = (QuantParams::new(1.0, 0), Conv2dParams::new(1, 1).with_groups(2));
        let p = PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::Panel).unwrap();
        assert_eq!(p.groups(), 2);
        // Group 1's first k-pair holds rows [5,6] and [7,8], then pad rows.
        assert_eq!(&p.group(1)[..MR * 2], &[5, 6, 7, 8, 0, 0, 0, 0]);
    }

    /// The tag names the entry point, not a layout: both tags hold the same
    /// pair-interleaved panels, byte for byte, for odd reduction depths and
    /// grouped convs alike.
    #[test]
    fn panel_and_kpair_tags_pack_identical_panels() {
        use crate::rng::DetRng;
        let mut rng = DetRng::new(5);
        // (K, C/groups, R, S, groups): kdim 3, 9, 5 and 16.
        for (k, cg, r, s, groups) in
            [(6, 3, 1, 1, 2), (5, 1, 3, 3, 1), (9, 5, 1, 1, 3), (4, 4, 2, 2, 2)]
        {
            let wshape = Shape4::new(k, cg, r, s);
            let w = Tensor::from_vec(wshape, (0..wshape.volume()).map(|_| rng.next_i8()).collect())
                .unwrap();
            let (q, params) =
                (QuantParams::new(0.5, -3), Conv2dParams::new(r, s).with_groups(groups));
            let [panel, kpair] = [PackLayout::Panel, PackLayout::KPair]
                .map(|layout| PackedConv2d::pack_with_layout(&w, q, &params, layout).unwrap());
            assert_eq!(panel.packed_bytes(), kpair.packed_bytes(), "{wshape}");
            let (kg, kdim) = (k / groups, cg * r * s);
            for g in 0..groups {
                let mut want = vec![0i16; packed_a_pairs_len(kg, kdim)];
                let src = &w.as_slice()[g * kg * kdim..(g + 1) * kg * kdim];
                pack_a_i8_pairs_into(&mut want, src, q.zero_point, kg, kdim).unwrap();
                assert_eq!(panel.group(g), want.as_slice(), "{wshape} group {g}");
                assert_eq!(kpair.group(g), want.as_slice(), "{wshape} group {g}");
            }
        }
    }

    #[test]
    fn packed_conv_rejects_bad_groups() {
        let w = Tensor::<i8>::zeros(Shape4::new(3, 1, 1, 1));
        let (q, params) = (QuantParams::new(1.0, 0), Conv2dParams::new(1, 1).with_groups(2));
        assert!(PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::Panel).is_err());
    }
}

//! im2col lowering: convolution windows materialized as a patch matrix.
//!
//! For one `(batch, group)` pair of a convolution, [`im2col`] writes a
//! row-major `K×N` matrix where `K = C_g·R·S` (one row per weight position)
//! and `N = OH·OW` (one column per output pixel). Multiplying the group's
//! `K_g×(C_g·R·S)` weight matrix against it — see [`crate::ops::gemm`] —
//! yields the convolution output in contiguous NCHW row order.
//!
//! Padded positions are filled with an explicit `pad` value: `0.0` for f32,
//! and the input *zero point* for the quantized path, so the GEMM's
//! Zero-Subtraction stage `(a − zp)` makes padding contribute exactly zero —
//! the same semantics as the reference loops. Valid output ranges per weight
//! position are precomputed once (`out_range`), so the inner copies are
//! branch-free and `stride == 1` rows degrade to `copy_from_slice`.
//!
//! `im2col` writes into a caller-provided buffer; on the serving hot path
//! that buffer comes from a reused [`crate::arena::Arena`], so no patch
//! matrix is heap-allocated per query (the conv entry points in
//! [`crate::ops::conv`] do the routing).

use crate::error::TensorError;
use crate::ops::conv::Conv2dParams;
use crate::tensor::{Element, Tensor};

/// The range `lo..hi` of output coordinates whose input coordinate
/// `o·stride + r − padding` lands inside `0..in_len`.
///
/// Hoisting this per weight position kills the per-pixel signed clamp that
/// the naive loops paid on every multiply-accumulate.
#[must_use]
fn out_range(
    r: usize,
    stride: usize,
    padding: usize,
    in_len: usize,
    out_len: usize,
) -> (usize, usize) {
    debug_assert!(stride > 0);
    let lo = padding.saturating_sub(r).div_ceil(stride).min(out_len);
    let hi = if in_len + padding > r {
        ((in_len + padding - r - 1) / stride + 1).min(out_len)
    } else {
        lo
    };
    (lo, hi.max(lo))
}

/// Materializes the patch matrix for batch element `n` and input channels
/// `c0..c0 + cg` into `out`, which must hold `cg·R·S · OH·OW` elements.
///
/// `oh`/`ow` are the validated output dims for `params` (the caller has run
/// [`Conv2dParams`] validation). Padded cells are written as `pad`.
///
/// # Errors
/// Returns an error if `out` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn im2col<T: Element>(
    input: &Tensor<T>,
    n: usize,
    c0: usize,
    cg: usize,
    params: &Conv2dParams,
    oh: usize,
    ow: usize,
    pad: T,
    out: &mut [T],
) -> Result<(), TensorError> {
    let npix = oh * ow;
    if out.len() != cg * params.kernel_h * params.kernel_w * npix {
        return Err(TensorError::LengthMismatch {
            expected: cg * params.kernel_h * params.kernel_w * npix,
            actual: out.len(),
        });
    }
    im2col_rows(input, n, c0, params, oh, ow, pad, out);
    Ok(())
}

/// [`im2col`] with the length already right: writes the patch rows of
/// input channels `c0..`, `R·S` rows of `OH·OW` per channel, until `out` is
/// full. The conv prologue splits one patch matrix into such contiguous
/// runs of rows, one channel range per part.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_rows<T: Element>(
    input: &Tensor<T>,
    n: usize,
    c0: usize,
    params: &Conv2dParams,
    oh: usize,
    ow: usize,
    pad: T,
    out: &mut [T],
) {
    let ishape = input.shape();
    let (kh, kw, stride, padding) =
        (params.kernel_h, params.kernel_w, params.stride, params.padding);
    let npix = oh * ow;
    // `max(1)`: an empty window or output leaves `out` empty, and no rows.
    let rows_len = (kh * kw * npix).max(1);
    debug_assert_eq!(out.len() % rows_len, 0);
    for (cc, rows) in out.chunks_exact_mut(rows_len).enumerate() {
        let c = c0 + cc;
        for ry in 0..kh {
            let (oy_lo, oy_hi) = out_range(ry, stride, padding, ishape.h, oh);
            for rx in 0..kw {
                let (ox_lo, ox_hi) = out_range(rx, stride, padding, ishape.w, ow);
                let kd = ry * kw + rx;
                let dst = &mut rows[kd * npix..(kd + 1) * npix];
                dst[..oy_lo * ow].fill(pad);
                dst[oy_hi * ow..].fill(pad);
                for oy in oy_lo..oy_hi {
                    let iy = oy * stride + ry - padding;
                    let irow = input.row(n, c, iy);
                    let drow = &mut dst[oy * ow..(oy + 1) * ow];
                    drow[..ox_lo].fill(pad);
                    drow[ox_hi..].fill(pad);
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    if stride == 1 {
                        let ix0 = ox_lo + rx - padding;
                        drow[ox_lo..ox_hi].copy_from_slice(&irow[ix0..ix0 + (ox_hi - ox_lo)]);
                    } else {
                        for (ox, d) in drow[ox_lo..ox_hi].iter_mut().enumerate() {
                            *d = irow[(ox_lo + ox) * stride + rx - padding];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{conv_out_dim, Shape4};

    /// Input cell that kernel tap `(ry, rx)` of output pixel `(oy, ox)`
    /// reads, or `pad` outside the input.
    fn reference_cell<T: Element>(
        input: &Tensor<T>,
        n: usize,
        c: usize,
        (ry, rx): (usize, usize),
        (oy, ox): (usize, usize),
        params: &Conv2dParams,
        pad: T,
    ) -> T {
        let ishape = input.shape();
        let iy = (oy * params.stride + ry) as isize - params.padding as isize;
        let ix = (ox * params.stride + rx) as isize - params.padding as isize;
        if iy < 0 || ix < 0 || iy >= ishape.h as isize || ix >= ishape.w as isize {
            pad
        } else {
            input.get(n, c, iy as usize, ix as usize)
        }
    }

    fn check(ishape: Shape4, params: &Conv2dParams, pad: f32) {
        let data: Vec<f32> = (0..ishape.volume()).map(|i| i as f32 + 1.0).collect();
        let input = Tensor::from_vec(ishape, data).unwrap();
        let oh = conv_out_dim(ishape.h, params.kernel_h, params.stride, params.padding).unwrap();
        let ow = conv_out_dim(ishape.w, params.kernel_w, params.stride, params.padding).unwrap();
        let cg = ishape.c;
        let mut patches = vec![0.0f32; cg * params.kernel_h * params.kernel_w * oh * ow];
        im2col(&input, 0, 0, cg, params, oh, ow, pad, &mut patches).unwrap();
        for cc in 0..cg {
            for ry in 0..params.kernel_h {
                for rx in 0..params.kernel_w {
                    let kd = (cc * params.kernel_h + ry) * params.kernel_w + rx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let got = patches[kd * oh * ow + oy * ow + ox];
                            let want =
                                reference_cell(&input, 0, cc, (ry, rx), (oy, ox), params, pad);
                            assert_eq!(got, want, "cell c={cc} ry={ry} rx={rx} oy={oy} ox={ox}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_same_padding_3x3() {
        check(Shape4::new(1, 2, 5, 6), &Conv2dParams::new(3, 3).with_padding(1), 0.0);
    }

    #[test]
    fn matches_reference_strided_with_padding() {
        check(
            Shape4::new(1, 3, 7, 7),
            &Conv2dParams::new(3, 3).with_stride(2).with_padding(1),
            0.0,
        );
    }

    #[test]
    fn matches_reference_1x1_and_5x5() {
        check(Shape4::new(1, 4, 6, 6), &Conv2dParams::new(1, 1), 0.0);
        check(Shape4::new(1, 1, 9, 8), &Conv2dParams::new(5, 5).with_padding(2), 0.0);
    }

    #[test]
    fn nonzero_pad_value_fills_borders() {
        check(Shape4::new(1, 1, 4, 4), &Conv2dParams::new(3, 3).with_padding(1), 42.5);
    }

    #[test]
    fn out_range_covers_edge_cases() {
        // No padding: everything valid.
        assert_eq!(out_range(0, 1, 0, 8, 6), (0, 6));
        // Same-padding 3x3 row 0: first output row reads above the input.
        assert_eq!(out_range(0, 1, 1, 8, 8), (1, 8));
        assert_eq!(out_range(2, 1, 1, 8, 8), (0, 7));
        // Stride 2: odd offsets round up.
        assert_eq!(out_range(0, 2, 1, 8, 4), (1, 4));
        // Kernel position entirely below the padded input.
        assert_eq!(out_range(9, 1, 0, 4, 2), (0, 0));
    }
}

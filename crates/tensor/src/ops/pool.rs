//! Pooling operators: max and global-average.
//!
//! Inner loops stream contiguous [`Tensor::row`] slices with the padding
//! clamp hoisted out of the window scan (see `conv::kernel_ranges`).

use crate::error::TensorError;
use crate::ops::conv::kernel_ranges;
use crate::shape::{conv_out_dim, Shape4};
use crate::tensor::Tensor;

/// Pooling window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Window height/width (square windows only).
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on all sides.
    pub padding: usize,
}

impl PoolParams {
    /// Creates a pooling configuration with stride equal to the window.
    #[must_use]
    pub const fn new(window: usize) -> Self {
        Self { window, stride: window, padding: 0 }
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

    fn out_dims(&self, input: Shape4) -> Result<(usize, usize), TensorError> {
        if self.window == 0 {
            return Err(TensorError::InvalidParam { what: "pool window must be nonzero" });
        }
        let oh = conv_out_dim(input.h, self.window, self.stride, self.padding);
        let ow = conv_out_dim(input.w, self.window, self.stride, self.padding);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => Ok((oh, ow)),
            _ => Err(TensorError::EmptyOutput { input }),
        }
    }
}

/// Max pooling. Padded cells are ignored (never win the max).
///
/// # Errors
/// Returns an error for a zero-size window or an empty output.
pub fn max_pool(input: &Tensor<f32>, params: &PoolParams) -> Result<Tensor<f32>, TensorError> {
    let ishape = input.shape();
    let (oh, ow) = params.out_dims(ishape)?;
    let (stride, padding) = (params.stride, params.padding);
    let mut out = Tensor::zeros(Shape4::new(ishape.n, ishape.c, oh, ow));
    let ry_ranges = kernel_ranges(oh, stride, padding, ishape.h, params.window);
    let rx_ranges = kernel_ranges(ow, stride, padding, ishape.w, params.window);
    for n in 0..ishape.n {
        for c in 0..ishape.c {
            for (oy, &(ry_lo, ry_hi)) in ry_ranges.iter().enumerate() {
                let orow = out.row_mut(n, c, oy);
                for (ox, o) in orow.iter_mut().enumerate() {
                    let (rx_lo, rx_hi) = rx_ranges[ox];
                    let mut best = f32::NEG_INFINITY;
                    for ry in ry_lo..ry_hi {
                        let irow = input.row(n, c, oy * stride + ry - padding);
                        if stride == 1 && rx_lo < rx_hi {
                            let ix0 = ox + rx_lo - padding;
                            for &v in &irow[ix0..ix0 + (rx_hi - rx_lo)] {
                                best = best.max(v);
                            }
                        } else {
                            for rx in rx_lo..rx_hi {
                                best = best.max(irow[ox * stride + rx - padding]);
                            }
                        }
                    }
                    *o = best;
                }
            }
        }
    }
    Ok(out)
}

/// Global average pooling: collapses H×W to 1×1 per channel.
#[must_use]
pub fn global_avg_pool(input: &Tensor<f32>) -> Tensor<f32> {
    let ishape = input.shape();
    let mut out = Tensor::zeros(Shape4::new(ishape.n, ishape.c, 1, 1));
    let area = (ishape.h * ishape.w) as f32;
    for n in 0..ishape.n {
        for c in 0..ishape.c {
            let mut sum = 0.0;
            for y in 0..ishape.h {
                sum += input.row(n, c, y).iter().sum::<f32>();
            }
            out.set(n, c, 0, 0, if area > 0.0 { sum / area } else { 0.0 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(shape: Shape4) -> Tensor<f32> {
        let data = (0..shape.volume()).map(|i| i as f32).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn max_pool_2x2_picks_window_max() {
        let input = ramp(Shape4::new(1, 1, 4, 4));
        let out = max_pool(&input, &PoolParams::new(2)).unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(out.get(0, 0, 0, 0), 5.0);
        assert_eq!(out.get(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn max_pool_ignores_padding() {
        let input = Tensor::<f32>::filled(Shape4::new(1, 1, 2, 2), -3.0);
        let p = PoolParams::new(3).with_stride(1).with_padding(1);
        let out = max_pool(&input, &p).unwrap();
        // Padded zeros must not beat the real -3 values.
        assert_eq!(out.get(0, 0, 0, 0), -3.0);
    }

    #[test]
    fn global_avg_pool_collapses_spatial() {
        let input = ramp(Shape4::new(1, 2, 2, 2));
        let out = global_avg_pool(&input);
        assert_eq!(out.shape(), Shape4::new(1, 2, 1, 1));
        assert_eq!(out.get(0, 0, 0, 0), 1.5);
        assert_eq!(out.get(0, 1, 0, 0), 5.5);
    }

    #[test]
    fn pool_rejects_zero_window() {
        let input = ramp(Shape4::new(1, 1, 4, 4));
        let p = PoolParams { window: 0, stride: 1, padding: 0 };
        assert!(max_pool(&input, &p).is_err());
    }

    #[test]
    fn pool_rejects_window_larger_than_input() {
        let input = ramp(Shape4::new(1, 1, 2, 2));
        assert!(max_pool(&input, &PoolParams::new(5)).is_err());
    }
}

//! Four-dimensional NCHW shape arithmetic.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A dense NCHW shape: `(batch, channels, height, width)`.
///
/// All SUSHI workloads are convolutional, so a fixed-rank shape keeps
/// indexing branch-free. Weight tensors reuse the same type with the
/// convention `(K, C, R, S)` = (kernels, input channels, kernel height,
/// kernel width), mirroring the paper's Fig. 5 terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape4 {
    /// Batch size `N` (or kernel count `K` for weights).
    pub n: usize,
    /// Channels `C`.
    pub c: usize,
    /// Height `H` (or kernel height `R`).
    pub h: usize,
    /// Width `W` (or kernel width `S`).
    pub w: usize,
}

impl Shape4 {
    /// Creates a new shape.
    ///
    /// # Example
    /// ```
    /// let s = sushi_tensor::Shape4::new(1, 64, 56, 56);
    /// assert_eq!(s.volume(), 64 * 56 * 56);
    /// ```
    #[must_use]
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self { n, c, h, w }
    }

    /// Total number of elements.
    #[must_use]
    pub const fn volume(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Row-major (NCHW) strides `(sn, sc, sh, sw)`.
    #[must_use]
    pub const fn strides(&self) -> (usize, usize, usize, usize) {
        (self.c * self.h * self.w, self.h * self.w, self.w, 1)
    }

    /// Flat offset of element `(n, c, h, w)`.
    ///
    /// # Panics
    /// Panics in debug builds if any index is out of bounds.
    #[inline]
    #[must_use]
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "index ({n},{c},{h},{w}) out of bounds for {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Flat offset of the first element of row `(n, c, h)`.
    ///
    /// Hot loops iterate `[row_offset .. row_offset + w]` as one contiguous
    /// slice instead of calling [`Shape4::offset`] per element.
    ///
    /// # Panics
    /// Panics in debug builds if any index is out of bounds.
    #[inline]
    #[must_use]
    pub fn row_offset(&self, n: usize, c: usize, h: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h,
            "row ({n},{c},{h}) out of bounds for {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{}x{}x{}]", self.n, self.c, self.h, self.w)
    }
}

/// Computes the spatial output size of a convolution/pooling window.
///
/// Returns `None` when the padded input is smaller than the kernel.
///
/// # Example
/// ```
/// use sushi_tensor::shape::conv_out_dim;
/// assert_eq!(conv_out_dim(56, 3, 1, 1), Some(56)); // same-padding 3x3
/// assert_eq!(conv_out_dim(56, 3, 2, 1), Some(28)); // strided
/// assert_eq!(conv_out_dim(2, 5, 1, 0), None);      // kernel larger than input
/// ```
#[must_use]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_counts_all_elements() {
        assert_eq!(Shape4::new(2, 3, 4, 5).volume(), 120);
    }

    #[test]
    fn volume_of_degenerate_dim_is_zero() {
        assert_eq!(Shape4::new(1, 0, 4, 5).volume(), 0);
    }

    #[test]
    fn offset_is_row_major_nchw() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.offset(0, 0, 0, 0), 0);
        assert_eq!(s.offset(0, 0, 0, 1), 1);
        assert_eq!(s.offset(0, 0, 1, 0), 5);
        assert_eq!(s.offset(0, 1, 0, 0), 20);
        assert_eq!(s.offset(1, 0, 0, 0), 60);
        assert_eq!(s.offset(1, 2, 3, 4), 119);
    }

    #[test]
    fn row_offset_matches_offset_of_first_column() {
        let s = Shape4::new(2, 3, 4, 5);
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    assert_eq!(s.row_offset(n, c, h), s.offset(n, c, h, 0));
                }
            }
        }
    }

    #[test]
    fn strides_match_offset() {
        let s = Shape4::new(2, 3, 4, 5);
        let (sn, sc, sh, sw) = s.strides();
        assert_eq!(s.offset(1, 2, 3, 4), sn + 2 * sc + 3 * sh + 4 * sw);
    }

    #[test]
    fn conv_out_dim_same_padding() {
        assert_eq!(conv_out_dim(224, 7, 2, 3), Some(112));
        assert_eq!(conv_out_dim(7, 1, 1, 0), Some(7));
    }

    #[test]
    fn conv_out_dim_rejects_zero_stride() {
        assert_eq!(conv_out_dim(8, 3, 0, 1), None);
    }

    #[test]
    fn conv_out_dim_rejects_too_small_input() {
        assert_eq!(conv_out_dim(2, 7, 1, 1), None);
    }

    #[test]
    fn display_is_nonempty_and_contains_dims() {
        let s = Shape4::new(1, 64, 56, 57).to_string();
        assert!(s.contains("64") && s.contains("57"));
    }
}

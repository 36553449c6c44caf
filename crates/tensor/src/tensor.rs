//! Dense NCHW tensor container.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::shape::Shape4;

/// Element types storable in a [`Tensor`].
///
/// Sealed to the three types the SUSHI datapath uses: `f32` reference math,
/// `i8` quantized weights/activations and `i32` accumulators.
pub trait Element:
    Copy + Default + PartialEq + fmt::Debug + Send + Sync + 'static + private::Sealed
{
}

impl Element for f32 {}
impl Element for i8 {}
impl Element for i32 {}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for i8 {}
    impl Sealed for i32 {}
}

/// A dense, heap-allocated NCHW tensor.
///
/// # Example
/// ```
/// use sushi_tensor::{Tensor, Shape4};
///
/// let mut t = Tensor::<i8>::zeros(Shape4::new(1, 2, 2, 2));
/// t.set(0, 1, 1, 1, 42);
/// assert_eq!(t.get(0, 1, 1, 1), 42);
/// assert_eq!(t.as_slice().iter().filter(|&&v| v == 42).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<T: Element> {
    shape: Shape4,
    data: Vec<T>,
}

impl<T: Element> Tensor<T> {
    /// Creates a tensor of zeros (the element type's default value).
    #[must_use]
    pub fn zeros(shape: Shape4) -> Self {
        Self { shape, data: vec![T::default(); shape.volume()] }
    }

    /// Creates a tensor where every element is `value`.
    #[must_use]
    pub fn filled(shape: Shape4, value: T) -> Self {
        Self { shape, data: vec![value; shape.volume()] }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.volume()`.
    pub fn from_vec(shape: Shape4, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Read-only view of the backing buffer in NCHW order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing buffer in NCHW order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics if the index is out of bounds (debug builds check each axis).
    #[inline]
    #[must_use]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> T {
        self.data[self.shape.offset(n, c, h, w)]
    }

    /// Element setter.
    ///
    /// # Panics
    /// Panics if the index is out of bounds (debug builds check each axis).
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: T) {
        let off = self.shape.offset(n, c, h, w);
        self.data[off] = value;
    }

    /// Contiguous row `(n, c, h, 0..w)` as a slice.
    ///
    /// Hot loops use this (plus [`Shape4::row_offset`]) to stream whole rows
    /// instead of paying the four-term offset arithmetic per element.
    ///
    /// # Panics
    /// Panics if the row is out of bounds (debug builds check each axis).
    #[inline]
    #[must_use]
    pub fn row(&self, n: usize, c: usize, h: usize) -> &[T] {
        let off = self.shape.row_offset(n, c, h);
        &self.data[off..off + self.shape.w]
    }

    /// Mutable contiguous row `(n, c, h, 0..w)`.
    ///
    /// # Panics
    /// Panics if the row is out of bounds (debug builds check each axis).
    #[inline]
    pub fn row_mut(&mut self, n: usize, c: usize, h: usize) -> &mut [T] {
        let off = self.shape.row_offset(n, c, h);
        &mut self.data[off..off + self.shape.w]
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Applies `f` elementwise, producing a new tensor of the same shape.
    #[must_use]
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor { shape: self.shape, data: self.data.iter().copied().map(f).collect() }
    }
}

impl Tensor<f32> {
    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                what: "max_abs_diff operands",
                lhs: self.shape,
                rhs: other.shape,
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0_f32, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_default_elements() {
        let t = Tensor::<i32>::zeros(Shape4::new(1, 2, 2, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::<f32>::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 4, actual: 3 });
    }

    #[test]
    fn get_set_are_inverse() {
        let mut t = Tensor::<f32>::zeros(Shape4::new(2, 2, 3, 3));
        t.set(1, 0, 2, 1, 7.5);
        assert_eq!(t.get(1, 0, 2, 1), 7.5);
        assert_eq!(t.get(0, 0, 2, 1), 0.0);
    }

    #[test]
    fn row_views_match_element_accessors() {
        let mut t = Tensor::<f32>::zeros(Shape4::new(2, 2, 3, 4));
        t.set(1, 1, 2, 3, 9.0);
        assert_eq!(t.row(1, 1, 2), &[0.0, 0.0, 0.0, 9.0]);
        t.row_mut(0, 1, 0).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1, 0, 2), 3.0);
    }

    #[test]
    fn map_converts_element_type() {
        let t = Tensor::<i8>::filled(Shape4::new(1, 1, 1, 3), 4);
        let f: Tensor<f32> = t.map(|v| f32::from(v) * 0.5);
        assert_eq!(f.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_detects_largest_deviation() {
        let a = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![1.0, 2.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
    }

    #[test]
    fn max_abs_diff_rejects_shape_mismatch() {
        let a = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 3));
        let b = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 1));
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn empty_tensor_reports_empty() {
        let t = Tensor::<f32>::zeros(Shape4::new(0, 1, 1, 1));
        assert!(t.is_empty());
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor<f32>>();
        assert_send_sync::<Tensor<i8>>();
    }
}

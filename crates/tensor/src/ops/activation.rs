//! Activation functions used by OFA-ResNet50 and OFA-MobileNetV3.

use crate::tensor::Tensor;

/// Activation kinds present in the SUSHI workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity (no activation).
    #[default]
    None,
    /// `max(0, x)` — ResNet blocks.
    Relu,
    /// `min(max(0, x), 6)` — mobile nets.
    Relu6,
    /// `x * relu6(x + 3) / 6` — MobileNetV3 h-swish.
    HSwish,
    /// `relu6(x + 3) / 6` — MobileNetV3 squeeze-excite gate.
    HSigmoid,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    #[must_use]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::HSwish => x * (x + 3.0).clamp(0.0, 6.0) / 6.0,
            Activation::HSigmoid => (x + 3.0).clamp(0.0, 6.0) / 6.0,
        }
    }

    /// Applies the activation elementwise to a mutable slice, in place.
    ///
    /// The hot-loop form: callers stream a tensor's backing buffer (or one
    /// [`Tensor::row`]) without allocating an output tensor.
    #[inline]
    fn apply_slice(self, xs: &mut [f32]) {
        if self == Activation::None {
            return;
        }
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Applies the activation elementwise to a tensor.
    #[must_use]
    pub fn apply_tensor(self, t: &Tensor<f32>) -> Tensor<f32> {
        let mut out = t.clone();
        self.apply_slice(out.as_mut_slice());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    #[test]
    fn relu_clamps_negatives_only() {
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.apply(5.0), 5.0);
    }

    #[test]
    fn relu6_clamps_both_sides() {
        assert_eq!(Activation::Relu6.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu6.apply(3.0), 3.0);
        assert_eq!(Activation::Relu6.apply(9.0), 6.0);
    }

    #[test]
    fn hswish_matches_definition_at_key_points() {
        // hswish(-3) = 0, hswish(0) = 0, hswish(3) = 3, hswish(6) = 6.
        assert_eq!(Activation::HSwish.apply(-3.0), 0.0);
        assert_eq!(Activation::HSwish.apply(0.0), 0.0);
        assert_eq!(Activation::HSwish.apply(3.0), 3.0);
        assert_eq!(Activation::HSwish.apply(6.0), 6.0);
    }

    #[test]
    fn hsigmoid_saturates_at_zero_and_one() {
        assert_eq!(Activation::HSigmoid.apply(-4.0), 0.0);
        assert_eq!(Activation::HSigmoid.apply(4.0), 1.0);
        assert_eq!(Activation::HSigmoid.apply(0.0), 0.5);
    }

    #[test]
    fn none_is_identity() {
        assert_eq!(Activation::None.apply(-7.25), -7.25);
    }

    #[test]
    fn apply_tensor_is_elementwise() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![-1.0, 0.5, 9.0]).unwrap();
        let out = Activation::Relu6.apply_tensor(&t);
        assert_eq!(out.as_slice(), &[0.0, 0.5, 6.0]);
    }

    #[test]
    fn default_activation_is_none() {
        assert_eq!(Activation::default(), Activation::None);
    }

    #[test]
    fn apply_slice_matches_scalar_apply() {
        let vals = [-7.5, -3.0, -0.1, 0.0, 2.9, 6.0, 11.0];
        for act in [
            Activation::None,
            Activation::Relu,
            Activation::Relu6,
            Activation::HSwish,
            Activation::HSigmoid,
        ] {
            let mut xs = vals;
            act.apply_slice(&mut xs);
            for (x, v) in xs.iter().zip(&vals) {
                assert_eq!(*x, act.apply(*v));
            }
        }
    }
}

//! Property-based tests for the tensor substrate: algebraic laws the
//! reference operators must satisfy for any input.

use proptest::prelude::*;

use sushi_tensor::ops::conv::{conv2d_i8_in, Conv2dParams};
use sushi_tensor::ops::pool::{max_pool, PoolParams};
use sushi_tensor::quant::{calibrate_symmetric, dequantize_tensor, quantize_tensor, QuantParams};
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};

#[allow(dead_code)]
fn tensor_strategy(shape: Shape4, range: f32) -> impl Strategy<Value = Tensor<f32>> {
    proptest::collection::vec(-range..range, shape.volume())
        .prop_map(move |v| Tensor::from_vec(shape, v).expect("len matches"))
}

fn small_conv_shapes() -> impl Strategy<Value = (Shape4, Shape4, Conv2dParams)> {
    (1usize..=4, 1usize..=6, 4usize..=8, prop_oneof![Just(1usize), Just(3usize)], 1usize..=2)
        .prop_map(|(c, k, hw, ks, stride)| {
            let input = Shape4::new(1, c, hw, hw);
            let weights = Shape4::new(k, c, ks, ks);
            let params = Conv2dParams::new(ks, ks).with_stride(stride).with_padding(ks / 2);
            (input, weights, params)
        })
}

/// Integers in `-1..=1`: with at most 4 channels and a 3×3 kernel, every
/// unit-scale conv below stays inside `i8`, so the linear laws hold exactly.
fn ternary(shape: Shape4, seed: u64) -> Tensor<i8> {
    let mut rng = DetRng::new(seed);
    Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.below(3) as i8 - 1).collect()).unwrap()
}

/// The unfused int8 conv at scale 1 and zero point 0, where requantization
/// is the identity on in-range accumulators.
fn unit_conv(x: &Tensor<i8>, w: &Tensor<i8>, p: &Conv2dParams, policy: KernelPolicy) -> Tensor<i8> {
    let q = QuantParams::new(1.0, 0);
    conv2d_i8_in(x, q, w, q, None, None, q, p, policy, &mut Arena::new()).unwrap()
}

fn zip_map(a: &Tensor<i8>, b: &Tensor<i8>, f: impl Fn(i8, i8) -> i8) -> Tensor<i8> {
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Tensor::from_vec(a.shape(), data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Convolution is linear in the input: conv(a + b) == conv(a) + conv(b),
    /// exactly, on either backend.
    #[test]
    fn conv_is_linear_in_input(
        (ishape, wshape, params) in small_conv_shapes(),
        seed in 0u64..1000,
    ) {
        let a = ternary(ishape, seed);
        let b = ternary(ishape, seed + 1);
        let w = ternary(wshape, seed + 2);
        for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm] {
            let conv_sum = unit_conv(&zip_map(&a, &b, |x, y| x + y), &w, &params, policy);
            let ca = unit_conv(&a, &w, &params, policy);
            let cb = unit_conv(&b, &w, &params, policy);
            prop_assert_eq!(conv_sum, zip_map(&ca, &cb, |x, y| x + y));
        }
    }

    /// Scaling the kernel scales the output, exactly, on either backend.
    #[test]
    fn conv_is_homogeneous_in_weights(
        (ishape, wshape, params) in small_conv_shapes(),
        seed in 0u64..1000,
        alpha in -2i8..=2,
    ) {
        let x = ternary(ishape, seed);
        let w = ternary(wshape, seed + 1);
        for policy in [KernelPolicy::Naive, KernelPolicy::Im2colGemm] {
            let scaled = unit_conv(&x, &w.map(|v| v * alpha), &params, policy);
            let base = unit_conv(&x, &w, &params, policy);
            prop_assert_eq!(scaled, base.map(|v| v * alpha));
        }
    }

    /// Quantize -> dequantize error is bounded by half a step for in-range
    /// values under symmetric calibration.
    #[test]
    fn quantization_roundtrip_error_bounded(values in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = values.len();
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, n), values).unwrap();
        let q = calibrate_symmetric(&t);
        let rt = dequantize_tensor(&quantize_tensor(&t, q), q);
        prop_assert!(t.max_abs_diff(&rt).unwrap() <= q.scale / 2.0 + 1e-6);
    }

    /// Quantization is monotone: a <= b implies q(a) <= q(b).
    #[test]
    fn quantization_is_monotone(a in -20.0f32..20.0, b in -20.0f32..20.0, scale in 0.01f32..1.0, zp in -10i8..10) {
        let q = QuantParams::new(scale, zp);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    /// Max pooling never invents values: every output equals some input.
    #[test]
    fn max_pool_outputs_are_inputs(values in proptest::collection::vec(-5.0f32..5.0, 36)) {
        let t = Tensor::from_vec(Shape4::new(1, 1, 6, 6), values.clone()).unwrap();
        let out = max_pool(&t, &PoolParams::new(2)).unwrap();
        for &v in out.as_slice() {
            prop_assert!(values.iter().any(|&x| (x - v).abs() < 1e-6));
        }
    }

    /// Strided conv output dims match the closed-form formula.
    #[test]
    fn conv_output_shape_matches_formula((ishape, wshape, params) in small_conv_shapes()) {
        let x = Tensor::<i8>::zeros(ishape);
        let w = Tensor::<i8>::zeros(wshape);
        let out = unit_conv(&x, &w, &params, KernelPolicy::Auto);
        let oh = sushi_tensor::shape::conv_out_dim(ishape.h, wshape.h, params.stride, params.padding).unwrap();
        prop_assert_eq!(out.shape(), Shape4::new(1, wshape.n, oh, oh));
    }
}

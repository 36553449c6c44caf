//! Property-based tests for the accelerator simulator: timing invariants
//! and bit-exactness of the functional DPE schedule on random shapes.

use proptest::prelude::*;

use sushi_accel::config::zcu104;
use sushi_accel::dpe::DpeArray;
use sushi_accel::timing::layer_timing;
use sushi_tensor::ops::conv::{conv2d_i8_in, Conv2dParams};
use sushi_tensor::{Arena, DetRng, KernelPolicy, QuantParams, Shape4, Tensor};
use sushi_wsnet::layer::{ConvKind, ConvLayerDesc, LayerId, LayerRole, LayerSlice};

fn layer_strategy() -> impl Strategy<Value = (ConvLayerDesc, LayerSlice)> {
    (
        prop_oneof![Just(ConvKind::Dense), Just(ConvKind::Depthwise)],
        8usize..256,
        8usize..256,
        prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        2usize..32,
        1usize..=2,
    )
        .prop_map(|(kind, k, c, ks, hw, stride)| {
            let (c, ks) = match kind {
                ConvKind::Dense => (c, ks),
                ConvKind::Depthwise => (1, ks.max(3)),
            };
            let layer = ConvLayerDesc {
                id: LayerId(0),
                name: "prop".into(),
                stage: 0,
                block: 0,
                role: LayerRole::Spatial,
                kind,
                max_kernels: k,
                max_channels: c,
                max_kernel_size: ks,
                elastic_kernel: false,
                stride,
                in_h: hw,
                in_w: hw,
            };
            let slice = LayerSlice::new(k, c, ks);
            (layer, slice)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Weight traffic is conserved: PB hits + off-chip fetches always equal
    /// the slice's total weight bytes, for any partial cache.
    #[test]
    fn weight_traffic_is_conserved(
        (layer, slice) in layer_strategy(),
        cache_k_frac in 0.0f64..1.2,
        cache_c_frac in 0.0f64..1.2,
    ) {
        let cfg = zcu104();
        let cached = LayerSlice::new(
            (slice.kernels as f64 * cache_k_frac) as usize,
            (slice.channels as f64 * cache_c_frac).max(1.0) as usize,
            slice.kernel_size,
        );
        let t = layer_timing(&cfg, &layer, &slice, &cached);
        prop_assert_eq!(
            t.traffic.offchip_weights + t.traffic.pb_weights,
            layer.weight_bytes(&slice)
        );
    }

    /// Caching any SubGraph slice never increases a layer's latency.
    #[test]
    fn caching_never_hurts((layer, slice) in layer_strategy(), frac in 0.0f64..1.0) {
        let cfg = zcu104();
        let cached = LayerSlice::new(
            (slice.kernels as f64 * frac) as usize,
            slice.channels,
            slice.kernel_size,
        );
        let cold = layer_timing(&cfg, &layer, &slice, &LayerSlice::empty()).cycles.total();
        let warm = layer_timing(&cfg, &layer, &slice, &cached).cycles.total();
        prop_assert!(warm <= cold, "warm {warm} > cold {cold} (frac {frac})");
    }

    /// Latency is monotone in bandwidth: doubling effective bandwidth never
    /// slows a layer down.
    #[test]
    fn more_bandwidth_never_hurts((layer, slice) in layer_strategy()) {
        let slow = zcu104();
        let mut fast = zcu104();
        fast.effective_bw_fraction *= 2.0;
        let t_slow = layer_timing(&slow, &layer, &slice, &LayerSlice::empty()).cycles.total();
        let t_fast = layer_timing(&fast, &layer, &slice, &LayerSlice::empty()).cycles.total();
        prop_assert!(t_fast <= t_slow);
    }

    /// Latency is monotone in the slice: activating fewer kernels can only
    /// be as fast or faster.
    #[test]
    fn smaller_slices_are_not_slower((layer, slice) in layer_strategy(), frac in 0.1f64..1.0) {
        let cfg = zcu104();
        let smaller = LayerSlice::new(
            ((slice.kernels as f64 * frac) as usize).max(1),
            slice.channels,
            slice.kernel_size,
        );
        let full = layer_timing(&cfg, &layer, &slice, &LayerSlice::empty()).cycles.total();
        let part = layer_timing(&cfg, &layer, &smaller, &LayerSlice::empty()).cycles.total();
        prop_assert!(part <= full);
    }

    /// The critical path is at least the pure-compute lower bound and at
    /// least the unhidden-fetch lower bound when nothing is cached.
    #[test]
    fn critical_path_lower_bounds((layer, slice) in layer_strategy()) {
        let cfg = zcu104();
        let t = layer_timing(&cfg, &layer, &slice, &LayerSlice::empty());
        let compute = sushi_accel::timing::compute_cycles(&layer, &slice, cfg.kp, cfg.cp);
        prop_assert!(t.cycles.total() >= compute);
    }

    /// The functional DPE schedule is bit-exact against the reference conv
    /// for random shapes, zero points and array geometries.
    #[test]
    fn dpe_matches_reference_conv(
        kp in 1usize..8,
        cp in 1usize..8,
        k in 1usize..10,
        c in 1usize..10,
        hw in 3usize..8,
        ks in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..=2,
        zp_in in -20i8..20,
        zp_w in -20i8..20,
        seed in 0u64..10_000,
    ) {
        let ishape = Shape4::new(1, c, hw, hw);
        let wshape = Shape4::new(k, c, ks, ks);
        let mut rng = DetRng::new(seed);
        let x = Tensor::from_vec(ishape, (0..ishape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
        let w = Tensor::from_vec(wshape, (0..wshape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
        let in_q = QuantParams::new(0.05, zp_in);
        let w_q = QuantParams::new(0.02, zp_w);
        let out_q = QuantParams::new(0.4, 0);
        let params = Conv2dParams::new(ks, ks).with_stride(stride).with_padding(ks / 2);
        let mut arena = Arena::new();
        let auto = KernelPolicy::Auto;
        let reference =
            conv2d_i8_in(&x, in_q, &w, w_q, None, None, out_q, &params, auto, &mut arena).unwrap();
        let dpe = DpeArray::new(kp, cp)
            .conv2d_i8_in(&mut arena, &x, in_q, &w, w_q, None, None, out_q, &params)
            .unwrap();
        prop_assert_eq!(reference, dpe);
    }

    /// Depthwise DPE schedule is also bit-exact.
    #[test]
    fn dpe_matches_reference_depthwise(
        kp in 1usize..6,
        k in 1usize..12,
        hw in 4usize..9,
        ks in prop_oneof![Just(3usize), Just(5usize)],
        seed in 0u64..10_000,
    ) {
        let ishape = Shape4::new(1, k, hw, hw);
        let wshape = Shape4::new(k, 1, ks, ks);
        let mut rng = DetRng::new(seed);
        let x = Tensor::from_vec(ishape, (0..ishape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
        let w = Tensor::from_vec(wshape, (0..wshape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
        let q = QuantParams::new(0.03, 5);
        let params = Conv2dParams::new(ks, ks).with_padding(ks / 2).with_groups(k);
        let mut arena = Arena::new();
        let auto = KernelPolicy::Auto;
        let reference =
            conv2d_i8_in(&x, q, &w, q, None, None, q, &params, auto, &mut arena).unwrap();
        let dpe = DpeArray::new(kp, 3)
            .conv2d_i8_in(&mut arena, &x, q, &w, q, None, None, q, &params)
            .unwrap();
        prop_assert_eq!(reference, dpe);
    }
}

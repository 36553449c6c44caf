//! Microbenchmarks of the packed-GEMM building blocks: operand-packing
//! throughput and microkernel arithmetic rate at representative OFA layer
//! shapes, the prepacked-vs-cold GEMM comparison that motivates
//! pack-once-per-install, and the naive-vs-fast-backend int8 convolution
//! comparisons (im2col + GEMM for dense, the depthwise kernel for
//! MobileNetV3-shaped depthwise) that motivate `KernelPolicy::Auto`, and
//! MobileNetV3's fused 1×1 convs (epilogue on the register tile) against
//! the direct loops.
//!
//! Shapes mirror real OFA-ResNet50 conv-as-GEMM problems (`m` = kernels,
//! `k` = C·R·S, `n` = OH·OW). Set `SUSHI_BENCH_QUICK=1` (CI's bench-smoke
//! job) to shrink problem sizes so the whole target finishes in seconds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::{conv2d_i8_fused, conv2d_i8_in, Conv2dParams};
use sushi_tensor::ops::gemm::gemm_i8_packed_pairs;
use sushi_tensor::ops::pack::{
    pack_a_i8_pairs_into, pack_b_i8_pairs_into, packed_a_pairs_len, packed_b_pairs_len,
};
use sushi_tensor::{
    Arena, DetRng, Epilogue, KernelPolicy, PackLayout, PackedConv2d, QuantParams, Shape4, Tensor,
};

fn quick() -> bool {
    std::env::var("SUSHI_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Representative OFA-ResNet50 conv-as-GEMM shapes: (label, m, k, n).
fn shapes() -> Vec<(&'static str, usize, usize, usize)> {
    if quick() {
        vec![("stage2_3x3_quick", 32, 288, 196)]
    } else {
        vec![
            // stage-2 3×3: 128 kernels over 128·3·3 at 28².
            ("stage2_3x3", 128, 1152, 784),
            // stage-4 1×1 expand: 512 kernels over 1024 channels at 7².
            ("stage4_1x1", 512, 1024, 49),
            // stem-adjacent 3×3 with a wide patch matrix.
            ("stage1_3x3", 64, 576, 3136),
        ]
    }
}

fn bench_pack_throughput(c: &mut Criterion) {
    let mut rng = DetRng::new(11);
    let mut group = c.benchmark_group("pack");
    for (label, m, k, n) in shapes() {
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_i8()).collect();
        let mut pa = vec![0i16; packed_a_pairs_len(m, k)];
        let mut pb = vec![0i16; packed_b_pairs_len(k, n)];
        // Weight-side pack: paid once per SubGraph install.
        group.bench_function(&*format!("a_{label}_{m}x{k}"), |bch| {
            bch.iter(|| {
                pack_a_i8_pairs_into(&mut pa, black_box(&a), 3, m, k).unwrap();
                black_box(pa[0])
            })
        });
        // Patch-side pack: paid per query, so its throughput bounds the
        // packed path's fixed per-call cost.
        group.bench_function(&*format!("b_{label}_{k}x{n}"), |bch| {
            bch.iter(|| {
                pack_b_i8_pairs_into(&mut pb, black_box(&b), -7, k, n).unwrap();
                black_box(pb[0])
            })
        });
    }
    group.finish();
}

fn bench_microkernel_rate(c: &mut Criterion) {
    let mut rng = DetRng::new(12);
    let mut group = c.benchmark_group("microkernel");
    for (label, m, k, n) in shapes() {
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_i8()).collect();
        let mut pa = vec![0i16; packed_a_pairs_len(m, k)];
        let mut pb = vec![0i16; packed_b_pairs_len(k, n)];
        pack_a_i8_pairs_into(&mut pa, &a, 3, m, k).unwrap();
        pack_b_i8_pairs_into(&mut pb, &b, -7, k, n).unwrap();
        let mut acc = vec![0i32; m * n];
        let gflop = 2.0 * (m * k * n) as f64 / 1e9;
        // Pre-packed sweep: pure microkernel arithmetic (the per-query
        // steady state once weights are install-packed). The printed mean
        // time per iteration × this constant gives GFLOP/s:
        println!("microkernel/prepacked_{label}: {gflop:.3} GFLOP per iteration");
        group.bench_function(&*format!("prepacked_{label}_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                acc.fill(0);
                gemm_i8_packed_pairs(m, k, n, black_box(&pa), black_box(&pb), &mut acc).unwrap();
                black_box(acc[0])
            })
        });
        // Cold path: packs both operands per call (the no-cache fallback).
        group.bench_function(&*format!("coldpack_{label}_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                pack_a_i8_pairs_into(&mut pa, black_box(&a), 3, m, k).unwrap();
                pack_b_i8_pairs_into(&mut pb, black_box(&b), -7, k, n).unwrap();
                acc.fill(0);
                gemm_i8_packed_pairs(m, k, n, &pa, &pb, &mut acc).unwrap();
                black_box(acc[0])
            })
        });
    }
    group.finish();
}

/// The unfused int8 conv: a dense 3×3 under the direct loops and under
/// im2col + GEMM (packing its weights per call, with a reused arena), and
/// MobileNetV3-shaped depthwise convs (7×7 stride 1, 5×5 stride 2) under
/// the direct loops and under `Auto`, which runs the depthwise kernel.
fn bench_conv_backends(c: &mut Criterion) {
    let (ch, hw) = if quick() { (16, 14) } else { (64, 28) };
    let mut rng = DetRng::new(3);
    let mut rand = |shape: Shape4| {
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect()).unwrap()
    };
    let x = rand(Shape4::new(1, ch, hw, hw));
    let q = QuantParams::new(0.02, 3);
    let mut arena = Arena::new();
    let dense = Conv2dParams::new(3, 3).with_padding(1);
    let depthwise = |ks: usize, stride| {
        Conv2dParams::new(ks, ks).with_stride(stride).with_padding(ks / 2).with_groups(ch)
    };
    // (label, weights, params, the policy compared against naive)
    let cases = [
        ("3x3", rand(Shape4::new(ch, ch, 3, 3)), dense, ("gemm", KernelPolicy::Im2colGemm)),
        ("dw7x7_s1", rand(Shape4::new(ch, 1, 7, 7)), depthwise(7, 1), ("auto", KernelPolicy::Auto)),
        ("dw5x5_s2", rand(Shape4::new(ch, 1, 5, 5)), depthwise(5, 2), ("auto", KernelPolicy::Auto)),
    ];
    for (label, w, params, fast) in &cases {
        let mut group = c.benchmark_group(&format!("conv2d_{ch}x{ch}x{hw}x{hw}_{label}"));
        for (name, policy) in [("naive", KernelPolicy::Naive), *fast] {
            group.bench_function(BenchmarkId::new("i8", name), |bch| {
                bch.iter(|| {
                    conv2d_i8_in(black_box(&x), q, w, q, None, None, q, params, policy, &mut arena)
                        .unwrap()
                })
            });
        }
        group.finish();
    }
}

/// MobileNetV3's fused 1×1 convs as the serving path runs them
/// (`conv2d_i8_fused`: install-packed k-pair panels, the epilogue applied to
/// each register tile) against the direct loops on the same problem: two
/// h-swish MBConv expands and a linear project. Quick mode divides the
/// spatial size by four.
fn bench_fused_mbconv(c: &mut Criterion) {
    let shrink = if quick() { 4 } else { 1 };
    let mut rng = DetRng::new(5);
    let q = QuantParams::new(0.02, 3);
    let params = Conv2dParams::new(1, 1);
    let mut arena = Arena::new();
    // (label, input channels, output channels, spatial size, activation)
    let cases = [
        ("expand_16x48", 16, 48, 112, Activation::HSwish),
        ("expand_40x120", 40, 120, 28, Activation::HSwish),
        ("project_72x24", 72, 24, 56, Activation::None),
    ];
    for (label, cin, cout, hw, act) in cases {
        let hw = hw / shrink;
        let mut rand = |shape: Shape4| {
            Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect()).unwrap()
        };
        let x = rand(Shape4::new(1, cin, hw, hw));
        let w = rand(Shape4::new(cout, cin, 1, 1));
        let bias: Vec<i32> = (0..cout as i32).map(|i| i * 97 - 1500).collect();
        let packed = PackedConv2d::pack_with_layout(&w, q, &params, PackLayout::KPair).unwrap();
        let ep = Epilogue::uniform(bias.clone(), q.scale, q, act).unwrap();
        let mut group = c.benchmark_group(&format!("conv2d_{label}_{hw}x{hw}_{act:?}"));
        let naive = KernelPolicy::Naive;
        group.bench_function(BenchmarkId::new("i8", "naive"), |bch| {
            bch.iter(|| {
                let x = black_box(&x);
                conv2d_i8_in(x, q, &w, q, None, Some(&bias), q, &params, naive, &mut arena).unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("i8", "fused"), |bch| {
            bch.iter(|| {
                conv2d_i8_fused(black_box(&x), q, &packed, &ep, &params, &mut arena).unwrap()
            })
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_pack_throughput,
    bench_microkernel_rate,
    bench_conv_backends,
    bench_fused_mbconv
);
criterion_main!(benches);

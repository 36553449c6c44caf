//! Microbenchmarks of the SushiAccel simulator's hot paths: per-layer
//! timing, whole-query pricing, cache installation, pricing a batch from
//! the service table against walking its layers, and the functional int8
//! DPE convolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sushi_accel::config::zcu104;
use sushi_accel::dpe::DpeArray;
use sushi_accel::exec::{price_query, Accelerator, ServiceTable};
use sushi_accel::timing::layer_timing;
use sushi_tensor::ops::conv::Conv2dParams;
use sushi_tensor::{Arena, DetRng, KernelPolicy, QuantParams, Shape4, Tensor};
use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::zoo;

fn bench_layer_timing(c: &mut Criterion) {
    let cfg = zcu104();
    let net = zoo::resnet50_supernet();
    let sn = zoo::paper_subnets(&net).remove(3);
    let (layer, slice) = net
        .layers
        .iter()
        .zip(sn.graph.slices())
        .find(|(l, s)| !s.is_empty() && l.in_h == 14)
        .map(|(l, s)| (l.clone(), *s))
        .expect("mid-network layer");
    let cached = LayerSlice::new(slice.kernels / 2, slice.channels, slice.kernel_size);
    c.bench_function("layer_timing_single_conv", |b| {
        b.iter(|| {
            layer_timing(black_box(&cfg), black_box(&layer), black_box(&slice), black_box(&cached))
        })
    });
}

fn bench_serve_query(c: &mut Criterion) {
    let net = zoo::resnet50_supernet();
    let picks = zoo::paper_subnets(&net);
    let config = zcu104();
    let cached = net.subgraph_to_budget(&net.shared_subgraph(&picks), config.buffers.pb_bytes);
    c.bench_function("serve_resnet50_query_timing_model", |b| {
        b.iter(|| price_query(&config, black_box(&net), black_box(&picks[3]), Some(&cached)))
    });
}

fn bench_install_cache(c: &mut Criterion) {
    let net = zoo::mobilenet_v3_supernet();
    let picks = zoo::paper_subnets(&net);
    let shared = net.shared_subgraph(&picks);
    c.bench_function("install_cache_with_budget_fitting", |b| {
        b.iter(|| {
            let mut accel = Accelerator::new(zcu104());
            accel.install_cache(black_box(&net), black_box(shared.clone()));
        })
    });
}

/// One served batch (ResNet50 pick 3, b = 4, warm PB) priced two ways: a
/// service-table lookup, and the per-layer walk it tabulates.
fn bench_price_batch(c: &mut Criterion) {
    let net = zoo::resnet50_supernet();
    let picks = zoo::paper_subnets(&net);
    let shared = net.shared_subgraph(&picks);
    let table = ServiceTable::build(&zcu104(), &net, &picks, std::slice::from_ref(&shared));
    let (resident, _) = table.install(None, 1);
    let mut accel = Accelerator::new(zcu104());
    accel.install_cache(&net, shared);
    let _ = accel.serve_batch(&net, &picks[3], 4); // absorb reload
    c.bench_function("price_batch_table_vs_walk/table", |b| {
        b.iter(|| table.price(black_box(3), resident, black_box(4), 0))
    });
    c.bench_function("price_batch_table_vs_walk/walk", |b| {
        b.iter(|| accel.serve_batch(black_box(&net), black_box(&picks[3]), black_box(4)))
    });
}

fn bench_dpe_functional_conv(c: &mut Criterion) {
    let mut rng = DetRng::new(1);
    let ishape = Shape4::new(1, 32, 14, 14);
    let wshape = Shape4::new(32, 32, 3, 3);
    let x =
        Tensor::from_vec(ishape, (0..ishape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
    let w =
        Tensor::from_vec(wshape, (0..wshape.volume()).map(|_| rng.next_i8()).collect()).unwrap();
    let q = QuantParams::new(0.02, 3);
    let params = Conv2dParams::new(3, 3).with_padding(1);
    // Same DPE geometry, three host-simulation kernel policies: the
    // naive-vs-gemm spread is the win `KernelPolicy::Auto` locks in.
    for (name, policy) in [
        ("naive", KernelPolicy::Naive),
        ("gemm", KernelPolicy::Im2colGemm),
        ("auto", KernelPolicy::Auto),
    ] {
        let arr = DpeArray::new(16, 18).with_policy(policy);
        let mut arena = Arena::new();
        c.bench_function(&format!("dpe_int8_conv_32x32x14x14_{name}"), |b| {
            b.iter(|| {
                let x = black_box(&x);
                arr.conv2d_i8_in(&mut arena, x, q, black_box(&w), q, None, None, q, &params)
                    .unwrap()
            })
        });
    }
}

criterion_group!(
    benches,
    bench_layer_timing,
    bench_serve_query,
    bench_install_cache,
    bench_price_batch,
    bench_dpe_functional_conv
);
criterion_main!(benches);

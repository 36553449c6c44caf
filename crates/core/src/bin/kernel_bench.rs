//! Wall-clock benchmark of the functional int8 forward pass across kernel
//! backends: naive tiled schedule, per-call-packing GEMM, and the serving
//! hot path (weights pre-packed once per install, arena scratch reused).
//!
//! Times the largest ("max") SubNet of each zoo SuperNet through the full
//! DPE datapath, asserting on the way that every backend produces identical
//! logits, and prints six columns:
//!
//! * `naive` — [`KernelPolicy::Naive`], the cycle-faithful tiled schedule;
//! * `gemm` — [`KernelPolicy::Im2colGemm`], installing (slice, lower, pack)
//!   per call;
//! * `packed` — fusion-off [`SubgraphCache::build`] + reused [`Arena`],
//!   steady state (pack-amortized: what every query after the install
//!   pays);
//! * `fused` — [`SubgraphCache::build_fused`] steady state:
//!   bias/requant/activation run inside the conv epilogue of the k-pair
//!   microkernel instead of as separate passes;
//! * `install` — [`SubgraphCache::build_fused`] alone: slice, lower and
//!   pack the fused plan, what a serving SubGraph switch pays before its
//!   first query;
//! * `cold` — fusion-off [`SubgraphCache::build`] + first packed forward
//!   (an install plus the query that bears it, before amortization begins).
//!
//! `packed`, `fused` and `cold` run under [`KernelPolicy::Auto`], the
//! policy serving uses, so depthwise convs take the depthwise kernel; only
//! `gemm` forces every conv through im2col + GEMM.
//!
//! A second table times the depthwise kernel alone, one row per distinct
//! depthwise layer shape of the MobileNetV3 max SubNet (the toy MobileNet's
//! under `--quick`): the layer's MACs, the `Auto` kernel's best wall time
//! and GMAC/s over a reused [`Arena`], and the naive direct loops' time,
//! asserting that both produce the same bytes.
//!
//! A third table times the fused conv alone, one row per distinct dense
//! conv shape of the max SubNet of every zoo net: the GEMM's `(m, k, n)` =
//! (output channels, `C·R·S`, output pixels), the layer's MACs, and the
//! best wall time and GMAC/s of `conv2d_i8_fused` over a reused [`Arena`]
//! (im2col, `pack_b` and the k-pair GEMM with its epilogue), asserting the
//! same bytes as the naive direct loops.
//!
//! ```text
//! kernel_bench                        # paper zoo (ResNet50 + MobileNetV3)
//! kernel_bench --quick                # toy zoo (CI-sized, seconds)
//! kernel_bench --runs 3               # best-of-3 timing
//! ```
//!
//! Any other argument, or `--runs 0`, exits 2 and lists the accepted flags.
//!
//! The output is a report, not a gate: host-time regressions are judged by
//! the benchmark package (`BENCHMARK.json`), which runs the same datapath
//! with repeated, paired measurements.

use std::time::Instant;

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward_cached, SubgraphCache};
use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::{conv2d_i8_fused, conv2d_i8_in, Conv2dParams};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{
    Arena, DetRng, Epilogue, KernelPolicy, PackLayout, PackedConv2d, QuantParams, Shape4, Tensor,
};
use sushi_wsnet::layer::ConvKind;
use sushi_wsnet::{zoo, SuperNet, WeightStore};

fn usage_error(msg: &str) -> ! {
    eprintln!("kernel_bench: {msg} (accepted: --quick, --runs <n>)");
    std::process::exit(2);
}

/// Parses `--quick` and `--runs <n>` (`n ≥ 1`); anything else exits 2.
fn parse_args(mut args: impl Iterator<Item = String>) -> (bool, usize) {
    let (mut quick, mut runs) = (false, 1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--runs" => {
                let raw = args.next().unwrap_or_else(|| usage_error("--runs requires a value"));
                runs = match raw.parse() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error(&format!("invalid value '{raw}' for --runs")),
                };
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    (quick, runs)
}

/// Times every backend on `net`'s largest SubNet and prints one row.
fn bench_net(net: &SuperNet, runs: usize, seed: u64) {
    let store = WeightStore::synthesize(net, seed);
    let sn = net.materialize("max", &net.max_config()).expect("max config");
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed ^ 0xBEEF);
    let input_f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .expect("shape matches");
    let input = quantize_tensor(&input_f, act_quant());
    // ZCU104 geometry; the policy/caching is the only variable. The
    // cached columns run the serving policy (`Auto`), so depthwise convs
    // take the depthwise kernel as they do when serving.
    let naive_dpe = DpeArray::new(16, 18).with_policy(KernelPolicy::Naive);
    let gemm_dpe = DpeArray::new(16, 18).with_policy(KernelPolicy::Im2colGemm);
    let serve_dpe = DpeArray::new(16, 18);

    // Cold pack: build the install-time cache and run the first packed
    // forward — the cost the install-bearing query pays, exactly once.
    let mut arena = Arena::new();
    let t = Instant::now();
    let cache = SubgraphCache::build(net, &store, &sn).expect("SubNet installs");
    let packed_out = forward_cached(&serve_dpe, net, &store, &sn, Some(&cache), &mut arena, &input)
        .expect("packed forward");
    let cold_pack_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut packed_out = Some(packed_out);

    // The serving path: same weights, bias/requant/activation fused into
    // the conv epilogue at install. Its install is timed on its own.
    let mut install_ms = f64::INFINITY;
    let mut fused_cache = None;
    for _ in 0..runs {
        let t = Instant::now();
        let cache =
            SubgraphCache::build_fused(net, &store, &sn).expect("SubNet lowers to a fused plan");
        install_ms = install_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fused_cache = Some(cache);
    }
    let fused_cache = fused_cache.expect("at least one run");

    let mut naive_ms = f64::INFINITY;
    let mut gemm_ms = f64::INFINITY;
    let mut packed_ms = f64::INFINITY;
    let mut fused_ms = f64::INFINITY;
    let mut naive_out = None;
    let mut gemm_out = None;
    let mut fused_out = None;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let out = forward_cached(&serve_dpe, net, &store, &sn, Some(&cache), &mut arena, &input)
            .expect("packed forward");
        packed_ms = packed_ms.min(t.elapsed().as_secs_f64() * 1e3);
        packed_out = Some(out);

        let t = Instant::now();
        let out =
            forward_cached(&serve_dpe, net, &store, &sn, Some(&fused_cache), &mut arena, &input)
                .expect("fused forward");
        fused_ms = fused_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fused_out = Some(out);

        let t = Instant::now();
        let out = forward_cached(&gemm_dpe, net, &store, &sn, None, &mut Arena::new(), &input)
            .expect("gemm forward");
        gemm_ms = gemm_ms.min(t.elapsed().as_secs_f64() * 1e3);
        gemm_out = Some(out);

        let t = Instant::now();
        let out = forward_cached(&naive_dpe, net, &store, &sn, None, &mut Arena::new(), &input)
            .expect("naive forward");
        naive_ms = naive_ms.min(t.elapsed().as_secs_f64() * 1e3);
        naive_out = Some(out);
    }
    assert_eq!(
        naive_out, gemm_out,
        "{}: naive and gemm backends diverged — benchmark numbers would be meaningless",
        net.name
    );
    assert_eq!(
        naive_out, packed_out,
        "{}: pre-packed serving path diverged from the naive oracle",
        net.name
    );
    assert_eq!(
        naive_out, fused_out,
        "{}: IR-lowered fused path diverged from the naive oracle",
        net.name
    );
    println!(
        "{:<24} naive {naive_ms:>10.2} ms   gemm {gemm_ms:>9.2} ms   packed {packed_ms:>9.2} ms   \
         fused {fused_ms:>9.2} ms   install {install_ms:>8.2} ms   cold {cold_pack_ms:>9.2} ms   \
         speedup {:>6.2}x \
         (packed {:>6.2}x, fused {:>6.2}x)",
        format!("{}/max", net.name),
        naive_ms / gemm_ms,
        naive_ms / packed_ms,
        naive_ms / fused_ms,
    );
}

/// Calls of each depthwise layer per timed run: one call takes tens of
/// microseconds, so a best-of over single calls is mostly noise.
const LAYER_CALLS: usize = 10;

/// Times the depthwise kernel (`Auto`) against the direct loops (`Naive`)
/// on every distinct depthwise layer shape of `net`'s largest SubNet and
/// prints one row per shape.
fn bench_depthwise(net: &SuperNet, runs: usize, seed: u64) {
    let sn = net.materialize("max", &net.max_config()).expect("max config");
    let mut shapes = Vec::new();
    for (desc, slice) in net.layers.iter().zip(sn.graph.slices()) {
        let shape = (slice.kernels, desc.in_h, desc.in_w, slice.kernel_size, desc.stride);
        if desc.kind == ConvKind::Depthwise && slice.kernels > 0 && !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    let (in_q, w_q, out_q) =
        (QuantParams::new(0.05, 3), QuantParams::new(0.02, -2), QuantParams::new(0.1, 1));
    let mut rng = DetRng::new(seed);
    let mut rand_i8 = |shape: Shape4| {
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect())
            .expect("shape matches")
    };
    println!("\n{}/max depthwise layers, best of {runs} run(s) of {LAYER_CALLS} calls", net.name);
    println!(
        "{:>5} {:>9} {:>6} {:>9} {:>10} {:>8} {:>10}",
        "C", "in", "k/s", "MACs", "kernel", "GMAC/s", "naive"
    );
    let mut arena = Arena::new();
    for (c, h, w, k, stride) in shapes {
        let x = rand_i8(Shape4::new(1, c, h, w));
        let wt = rand_i8(Shape4::new(c, 1, k, k));
        let bias: Vec<i32> = (0..c as i32).map(|i| i * 37 - 500).collect();
        let p = Conv2dParams::new(k, k).with_stride(stride).with_padding(k / 2).with_groups(c);
        let mut time = |policy: KernelPolicy| {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..runs {
                let t = Instant::now();
                for _ in 0..LAYER_CALLS {
                    let (b, ar) = (Some(bias.as_slice()), &mut arena);
                    out = Some(conv2d_i8_in(&x, in_q, &wt, w_q, None, b, out_q, &p, policy, ar));
                }
                best = best.min(t.elapsed().as_secs_f64() * 1e3 / LAYER_CALLS as f64);
            }
            (best, out.expect("at least one run").expect("valid depthwise layer"))
        };
        let (kernel_ms, auto) = time(KernelPolicy::Auto);
        let (naive_ms, naive) = time(KernelPolicy::Naive);
        assert_eq!(auto, naive, "{}: depthwise kernel diverged from the naive loops", net.name);
        let os = auto.shape();
        let macs = c * k * k * os.h * os.w;
        println!(
            "{c:>5} {:>9} {:>6} {macs:>9} {kernel_ms:>7.3} ms {:>8.2} {naive_ms:>7.3} ms",
            format!("{h}x{w}"),
            format!("{k}x{k}/{stride}"),
            macs as f64 / kernel_ms / 1e6,
        );
    }
}

/// Times the fused conv on every distinct dense conv shape of `net`'s
/// largest SubNet and prints one row per shape, asserting that it gives
/// the naive direct loops' bytes.
fn bench_dense(net: &SuperNet, runs: usize, seed: u64) {
    let sn = net.materialize("max", &net.max_config()).expect("max config");
    let mut shapes = Vec::new();
    for (desc, slice) in net.layers.iter().zip(sn.graph.slices()) {
        let (k, c, ks) = (slice.kernels, slice.channels, slice.kernel_size);
        let shape = (k, c, ks, desc.stride, desc.in_h, desc.in_w);
        if desc.kind == ConvKind::Dense && !slice.is_empty() && !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    let (in_q, w_q, out_q) =
        (QuantParams::new(0.05, 3), QuantParams::new(0.02, -2), QuantParams::new(0.5, 1));
    let acc_scale = in_q.scale * w_q.scale / out_q.scale;
    let mut rng = DetRng::new(seed);
    let mut rand_i8 = |shape: Shape4| {
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect())
            .expect("shape matches")
    };
    println!(
        "\n{}/max dense conv layers, fused conv, best of {runs} run(s) of {LAYER_CALLS} calls",
        net.name
    );
    println!("{:>5} {:>6} {:>6} {:>11} {:>10} {:>8}", "m", "k", "n", "MACs", "fused", "GMAC/s");
    let mut arena = Arena::new();
    for (k, c, ks, stride, h, w) in shapes {
        let x = rand_i8(Shape4::new(1, c, h, w));
        let wt = rand_i8(Shape4::new(k, c, ks, ks));
        let bias: Vec<i32> = (0..k as i32).map(|i| i * 37 - 500).collect();
        let p = Conv2dParams::new(ks, ks).with_stride(stride).with_padding(ks / 2);
        let packed = PackedConv2d::pack_with_layout(&wt, w_q, &p, PackLayout::KPair)
            .expect("valid dense layer");
        let ep = Epilogue::uniform(bias.clone(), acc_scale, out_q, Activation::None)
            .expect("valid epilogue");
        let mut best = f64::INFINITY;
        let mut fused = None;
        for _ in 0..runs {
            let t = Instant::now();
            for _ in 0..LAYER_CALLS {
                fused = Some(conv2d_i8_fused(&x, in_q, &packed, &ep, &p, &mut arena));
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3 / LAYER_CALLS as f64);
        }
        let fused = fused.expect("at least one run").expect("valid dense layer");
        let b = Some(bias.as_slice());
        let naive =
            conv2d_i8_in(&x, in_q, &wt, w_q, None, b, out_q, &p, KernelPolicy::Naive, &mut arena)
                .expect("valid dense layer");
        assert_eq!(fused, naive, "{}: fused conv diverged from the naive loops", net.name);
        let os = fused.shape();
        let (m, kdim, n) = (k, c * ks * ks, os.h * os.w);
        let macs = m * kdim * n;
        println!(
            "{m:>5} {kdim:>6} {n:>6} {macs:>11} {best:>7.3} ms {:>8.2}",
            macs as f64 / best / 1e6
        );
    }
}

fn main() {
    let (quick, runs) = parse_args(std::env::args().skip(1));
    let nets: Vec<SuperNet> = if quick {
        vec![zoo::toy_supernet(), zoo::toy_mobilenet_supernet()]
    } else {
        vec![zoo::resnet50_supernet(), zoo::mobilenet_v3_supernet()]
    };
    println!("timing largest SubNet forward pass, best of {runs} run(s) per backend\n");
    for net in &nets {
        bench_net(net, runs, 2024);
    }
    let mobilenet = nets.last().expect("a MobileNet zoo entry");
    bench_depthwise(mobilenet, runs, 2024);
    for net in &nets {
        bench_dense(net, runs, 2024);
    }
}

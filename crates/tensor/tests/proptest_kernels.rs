//! Property-based equivalence suite for the kernel backends: the im2col +
//! packed-GEMM path and the depthwise kernel must reproduce the naive
//! oracle bit-identically across random shapes, strides, paddings and group
//! structures (their accumulation is exact), the packed kernel must match
//! the scalar reference across `m % MR != 0` / `n % NR != 0` tails, odd
//! reduction depths, zero-point extremes and pre-packed weights, and the
//! fused conv, whose epilogue runs on the GEMM's register tiles, must match
//! the naive conv plus the reference activation. Both conv entry points run
//! one GEMM conv body, so the unfused GEMM is also checked on the fused
//! conv's cases, and both packs must write every cell a per-cell reference
//! does. (The AVX2-vs-portable microkernel pins are unit tests in
//! `ops::gemm`.)

use proptest::prelude::*;

use sushi_tensor::ops::activation::Activation;
use sushi_tensor::ops::conv::{conv2d_i8_fused, conv2d_i8_in, Conv2dParams};
use sushi_tensor::ops::gemm::{gemm_i8_packed_pairs, KC, PARALLEL_MIN};
use sushi_tensor::ops::pack::{
    pack_a_i8_pairs_into, pack_b_i8_pairs_into, packed_a_pairs_len, packed_b_pairs_len, MR, NR,
};
use sushi_tensor::shape::conv_out_dim;
use sushi_tensor::{
    Arena, DetRng, Epilogue, KernelPolicy, PackLayout, PackedConv2d, QuantParams, Shape4, Tensor,
    TensorError,
};

/// A random-but-valid conv problem: `(input, weights, params)` shapes.
///
/// Covers dense (`groups == 1`), grouped (`1 < groups < C`) and depthwise
/// (`groups == C`) structures, kernels 1/3/5, strides 1–2 and paddings up
/// to `kernel/2`.
fn conv_cases() -> impl Strategy<Value = (Shape4, Shape4, Conv2dParams)> {
    (
        1usize..=2,                                            // batch
        1usize..=3,                                            // channels per group
        1usize..=3,                                            // groups
        1usize..=3,                                            // kernels per group
        4usize..=9,                                            // spatial size
        prop_oneof![Just(1usize), Just(3usize), Just(5usize)], // kernel
        1usize..=2,                                            // stride
        0usize..=2,                                            // padding
    )
        .prop_map(|(n, cg, groups, kg, hw, ks, stride, padding)| {
            let padding = padding.min(ks / 2 + 1);
            let input = Shape4::new(n, cg * groups, hw, hw);
            let weights = Shape4::new(kg * groups, cg, ks, ks);
            let params = Conv2dParams::new(ks, ks)
                .with_stride(stride)
                .with_padding(padding)
                .with_groups(groups);
            (input, weights, params)
        })
}

/// A random-but-valid depthwise problem (`groups == C`, one input channel
/// per group) from one of two regimes, with channel multiplier 1–2 and
/// strides 1–2 in both:
///
/// * small: batch 1–2, 1–8 channels, kernels 1/3/5/7, paddings up to
///   `kernel/2 + 1`, and heights and widths drawn independently from 1–20,
///   so inputs narrower than the kernel occur;
/// * threaded: batch 1–2, 1–13 channels (so the `n·C` planes are often
///   odd, and one channel gives one or two planes, fewer than the workers
///   on a machine with more cores), kernels 3/5/7 with `kernel/2` padding,
///   on the smallest input (plus up to 3 rows and columns) whose conv
///   reaches [`PARALLEL_MIN`] MACs, so the kernel splits its planes across
///   workers.
fn depthwise_cases() -> impl Strategy<Value = (Shape4, Shape4, Conv2dParams)> {
    let small = (
        1usize..=2, // batch
        1usize..=8, // channels (= groups)
        1usize..=2, // channel multiplier
        1usize..=20,
        1usize..=20,
        prop_oneof![Just(1usize), Just(3usize), Just(5usize), Just(7usize)], // kernel
        1usize..=2,                                                          // stride
        0usize..=4,                                                          // padding
    )
        .prop_map(|(n, c, mult, h, w, ks, stride, padding)| {
            let input = Shape4::new(n, c, h, w);
            let weights = Shape4::new(c * mult, 1, ks, ks);
            let params = Conv2dParams::new(ks, ks)
                .with_stride(stride)
                .with_padding(padding.min(ks / 2 + 1))
                .with_groups(c);
            (input, weights, params)
        });
    let threaded = (
        1usize..=2,                                            // batch
        1usize..=13,                                           // channels (= groups)
        1usize..=2,                                            // channel multiplier
        prop_oneof![Just(3usize), Just(5usize), Just(7usize)], // kernel
        1usize..=2,                                            // stride
        0usize..=3,                                            // extra rows
        0usize..=3,                                            // extra columns
    )
        .prop_map(|(n, c, mult, ks, stride, dh, dw)| {
            // With `kernel/2` padding an odd kernel leaves
            // `(len − 1)/stride + 1` outputs per side.
            let per_pixel = n * c * mult * ks * ks;
            let side = (PARALLEL_MIN.div_ceil(per_pixel) as f64).sqrt().ceil() as usize;
            let len = (side - 1) * stride + 1;
            let input = Shape4::new(n, c, len + dh, len + dw);
            let params =
                Conv2dParams::new(ks, ks).with_stride(stride).with_padding(ks / 2).with_groups(c);
            assert!(per_pixel * side * side >= PARALLEL_MIN, "below the threading threshold");
            (input, Shape4::new(c * mult, 1, ks, ks), params)
        });
    prop_oneof![small, threaded]
}

/// `(input, weights, params)` for `batch` items of `groups · cg` channels at
/// `hw × hw`, `groups · kg` kernels of `ks × ks`.
#[allow(clippy::too_many_arguments)]
fn conv_problem(
    batch: usize,
    groups: usize,
    cg: usize,
    kg: usize,
    hw: usize,
    ks: usize,
    stride: usize,
    padding: usize,
) -> (Shape4, Shape4, Conv2dParams) {
    let params =
        Conv2dParams::new(ks, ks).with_stride(stride).with_padding(padding).with_groups(groups);
    (Shape4::new(batch, cg * groups, hw, hw), Shape4::new(kg * groups, cg, ks, ks), params)
}

/// A fused-conv problem from one of three regimes: small shapes whose
/// `kg` and pixel counts leave ragged `MR`/`NR` tiles (1×1 or 3×3, strides
/// 1–2, padding 0–1, 1–2 groups, batch 1–2); reductions deeper than one K
/// block (`kdim > KC`, 3×3 and 1×1); and 1×1 products of at least
/// `PARALLEL_MIN` MACs, which the GEMM splits across threads.
fn fused_cases() -> impl Strategy<Value = (Shape4, Shape4, Conv2dParams)> {
    let ks = || prop_oneof![Just(1usize), Just(3usize)];
    let small = (1usize..=2, 1usize..=2, 1usize..=6, 1usize..=13, 1usize..=12, ks(), 1usize..=2)
        .prop_map(|(n, groups, cg, kg, hw, ks, stride)| {
            conv_problem(n, groups, cg, kg, hw.max(ks), ks, stride, ks / 2)
        });
    let deep = (1usize..=2, 1usize..=44, 1usize..=9, 3usize..=8, ks()).prop_map(
        |(n, extra, kg, hw, ks)| conv_problem(n, 1, KC / (ks * ks) + extra, kg, hw, ks, 1, ks / 2),
    );
    let threaded =
        (1usize..=2, 32usize..=48, 37usize..=64, 30usize..=36).prop_map(|(n, cg, kg, hw)| {
            assert!(kg * cg * hw * hw >= PARALLEL_MIN, "below the threading threshold");
            conv_problem(n, 1, cg, kg, hw, 1, 1, 0)
        });
    prop_oneof![small, deep, threaded]
}

/// The reference int8 activation of a requantized value: `max(0)` for
/// ReLU, dequantize → activate → quantize otherwise.
fn reference_act(act: Activation, q: i8, out_q: QuantParams) -> i8 {
    match act {
        Activation::None => q,
        Activation::Relu => q.max(0),
        other => out_q.quantize(other.apply(out_q.dequantize(q))),
    }
}

fn rand_i8(shape: Shape4, seed: u64) -> Tensor<i8> {
    let mut rng = DetRng::new(seed);
    Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.next_i8()).collect()).unwrap()
}

fn output_nonempty(ishape: Shape4, params: &Conv2dParams) -> bool {
    let dim = |len, k| conv_out_dim(len, k, params.stride, params.padding).is_some_and(|d| d > 0);
    dim(ishape.h, params.kernel_h) && dim(ishape.w, params.kernel_w)
}

/// The unfused conv on raw weights under `policy`, with a private arena.
#[allow(clippy::too_many_arguments)]
fn conv(
    x: &Tensor<i8>,
    in_q: QuantParams,
    w: &Tensor<i8>,
    w_q: QuantParams,
    bias: Option<&[i32]>,
    out_q: QuantParams,
    params: &Conv2dParams,
    policy: KernelPolicy,
) -> Result<Tensor<i8>, TensorError> {
    conv2d_i8_in(x, in_q, w, w_q, None, bias, out_q, params, policy, &mut Arena::new())
}

/// `(A − zp_a)·(B − zp_b)` through the packing and the dispatched kernel.
fn packed_gemm(m: usize, k: usize, n: usize, a: &[i8], zp_a: i8, b: &[i8], zp_b: i8) -> Vec<i32> {
    let mut pa = vec![0i16; packed_a_pairs_len(m, k)];
    let mut pb = vec![0i16; packed_b_pairs_len(k, n)];
    pack_a_i8_pairs_into(&mut pa, a, zp_a, m, k).unwrap();
    pack_b_i8_pairs_into(&mut pb, b, zp_b, k, n).unwrap();
    let mut c = vec![0i32; m * n];
    gemm_i8_packed_pairs(m, k, n, &pa, &pb, &mut c).unwrap();
    c
}

/// The scalar triple loop `(A − zp_a)·(B − zp_b)` every packed kernel must
/// reproduce exactly.
fn scalar_gemm(m: usize, k: usize, n: usize, a: &[i8], zp_a: i8, b: &[i8], zp_b: i8) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = i32::from(a[i * k + kk]) - i32::from(zp_a);
            for j in 0..n {
                c[i * n + j] += av * (i32::from(b[kk * n + j]) - i32::from(zp_b));
            }
        }
    }
    c
}

/// Per-cell reference of the pair-interleaved pack of an `outer × k`
/// operand (`at(o, kk)` its value at outer index `o`, reduction step `kk`)
/// with `tile` outer indices per panel: cell `(panel, t, o, h)` holds
/// `at(panel·tile + o, 2t + h) − zp`, or `0` past `outer` or `k`.
fn reference_pairs_pack(
    outer: usize,
    k: usize,
    tile: usize,
    zp: i8,
    at: impl Fn(usize, usize) -> i8,
) -> Vec<i16> {
    let kpairs = k.div_ceil(2);
    let mut cells = Vec::new();
    for panel in 0..outer.div_ceil(tile) {
        for t in 0..kpairs {
            for o in panel * tile..(panel + 1) * tile {
                for kk in [2 * t, 2 * t + 1] {
                    let inside = o < outer && kk < k;
                    cells.push(if inside { i16::from(at(o, kk)) - i16::from(zp) } else { 0 });
                }
            }
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `pack_a` and `pack_b` write every cell the per-cell reference does —
    /// full panels and the ragged last one, odd and even `k` (`k = 1`
    /// included), any zero point — over a destination full of stale
    /// values, so a pad the pack fails to write shows too.
    #[test]
    fn pair_packs_match_per_cell_reference(
        (mi, dm) in (0usize..=3, 0usize..MR),
        (ni, dn) in (0usize..=3, 0usize..NR),
        k in prop_oneof![Just(1usize), 1usize..=24],
        zp_a in i8::MIN..=i8::MAX,
        zp_b in i8::MIN..=i8::MAX,
        seed in 0u64..10_000,
    ) {
        let (m, n) = ((mi * MR + dm).max(1), (ni * NR + dn).max(1));
        let mut rng = DetRng::new(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_i8()).collect();
        let mut pa = vec![0x5A5A; packed_a_pairs_len(m, k)];
        pack_a_i8_pairs_into(&mut pa, &a, zp_a, m, k).unwrap();
        let want_a = reference_pairs_pack(m, k, MR, zp_a, |r, kk| a[r * k + kk]);
        prop_assert_eq!(pa, want_a, "pack_a {}x{} zp {}", m, k, zp_a);
        let mut pb = vec![0x5A5A; packed_b_pairs_len(k, n)];
        pack_b_i8_pairs_into(&mut pb, &b, zp_b, k, n).unwrap();
        let want_b = reference_pairs_pack(n, k, NR, zp_b, |j, kk| b[kk * n + j]);
        prop_assert_eq!(pb, want_b, "pack_b {}x{} zp {}", k, n, zp_b);
    }

    /// int8: the GEMM backend, packing its weights per call, is
    /// bit-identical to the naive oracle, including nonzero zero points and
    /// bias, on the general conv cases and on the fused conv's (partial sums
    /// across K blocks, threaded products, the 1×1 im2col skip).
    #[test]
    fn i8_gemm_is_bit_identical(
        (ishape, wshape, params) in prop_oneof![conv_cases(), fused_cases()],
        seed in 0u64..10_000,
        zp_in in -9i8..9,
        zp_w in -9i8..9,
    ) {
        prop_assume!(output_nonempty(ishape, &params));
        let x = rand_i8(ishape, seed);
        let w = rand_i8(wshape, seed + 1);
        let in_q = QuantParams::new(0.05, zp_in);
        let w_q = QuantParams::new(0.02, zp_w);
        let out_q = QuantParams::new(0.4, 3);
        let bias: Option<Vec<i32>> = Some({
            let mut rng = DetRng::new(seed + 2);
            (0..wshape.n).map(|_| (rng.next_u64() % 600) as i32 - 300).collect()
        });
        let naive =
            conv(&x, in_q, &w, w_q, bias.as_deref(), out_q, &params, KernelPolicy::Naive).unwrap();
        let gemm = conv(
            &x, in_q, &w, w_q, bias.as_deref(), out_q, &params, KernelPolicy::Im2colGemm,
        ).unwrap();
        prop_assert_eq!(naive, gemm);
    }

    /// Depthwise: `Auto` runs the depthwise kernel (split across workers in
    /// the threaded regime) and `Im2colGemm` the GEMM lowering; both must
    /// be bit-identical to the naive oracle, across zero points and biases
    /// large enough to saturate the requantize.
    #[test]
    fn depthwise_i8_gemm_is_bit_identical(
        (ishape, wshape, params) in depthwise_cases(),
        seed in 0u64..10_000,
        zp_in in i8::MIN..=i8::MAX,
        zp_w in i8::MIN..=i8::MAX,
    ) {
        prop_assume!(output_nonempty(ishape, &params));
        let x = rand_i8(ishape, seed);
        let w = rand_i8(wshape, seed + 1);
        let in_q = QuantParams::new(0.05, zp_in);
        let w_q = QuantParams::new(0.02, zp_w);
        let out_q = QuantParams::new(2.0, -3);
        // Mostly in-range accumulators (acc_scale is 1/2000), one bias in
        // four far past either clamp.
        let mut rng = DetRng::new(seed + 2);
        let bias: Vec<i32> = (0..wshape.n)
            .map(|_| {
                let mag = if rng.below(4) == 0 { 2_000_000 } else { 100_000 };
                (rng.next_u64() % (2 * mag + 1)) as i32 - mag as i32
            })
            .collect();
        let [naive, auto, gemm] =
            [KernelPolicy::Naive, KernelPolicy::Auto, KernelPolicy::Im2colGemm].map(|policy| {
                conv(&x, in_q, &w, w_q, Some(&bias), out_q, &params, policy).unwrap()
            });
        prop_assert_eq!(&naive, &auto);
        prop_assert_eq!(&naive, &gemm);
    }

    /// `Auto` must agree with whichever backend it picks — i.e. with both.
    #[test]
    fn auto_i8_matches_naive((ishape, wshape, params) in conv_cases(), seed in 0u64..10_000) {
        prop_assume!(output_nonempty(ishape, &params));
        let x = rand_i8(ishape, seed);
        let w = rand_i8(wshape, seed + 1);
        let q = QuantParams::new(0.05, 4);
        let naive = conv(&x, q, &w, q, None, q, &params, KernelPolicy::Naive).unwrap();
        let auto = conv(&x, q, &w, q, None, q, &params, KernelPolicy::Auto).unwrap();
        prop_assert_eq!(naive, auto);
    }

    /// The packed i8 kernel is bit-identical to the scalar triple loop
    /// across random shapes (the `1..=13` / `1..=21` ranges hit `m % MR !=
    /// 0` and `n % NR != 0` tails constantly, odd `k` the zero-padded final
    /// pair) and the *full* zero-point range, including the ±extremes where
    /// `a − zp` escapes `i8`.
    #[test]
    fn packed_i8_gemm_matches_scalar_reference(
        m in 1usize..=13,
        k in 1usize..=40,
        n in 1usize..=21,
        zp_a in i8::MIN..=i8::MAX,
        zp_b in i8::MIN..=i8::MAX,
        seed in 0u64..10_000,
    ) {
        let mut rng = DetRng::new(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_i8()).collect();
        let c = packed_gemm(m, k, n, &a, zp_a, &b, zp_b);
        prop_assert_eq!(&c, &scalar_gemm(m, k, n, &a, zp_a, &b, zp_b), "{}x{}x{}", m, k, n);
    }

    /// Weights packed once via `PackedConv2d` serve bit-identical results
    /// to the naive conv oracle across random conv problems, the fused
    /// conv's included, with the arena reused across queries.
    #[test]
    fn prepacked_conv_i8_is_bit_identical(
        (ishape, wshape, params) in prop_oneof![conv_cases(), fused_cases()],
        seed in 0u64..10_000,
        zp_in in i8::MIN..=i8::MAX,
        zp_w in i8::MIN..=i8::MAX,
    ) {
        prop_assume!(output_nonempty(ishape, &params));
        let x = rand_i8(ishape, seed);
        let w = rand_i8(wshape, seed + 1);
        let in_q = QuantParams::new(0.05, zp_in);
        let w_q = QuantParams::new(0.02, zp_w);
        let out_q = QuantParams::new(0.4, 3);
        let naive = conv(&x, in_q, &w, w_q, None, out_q, &params, KernelPolicy::Naive).unwrap();
        let packed = PackedConv2d::pack_with_layout(&w, w_q, &params, PackLayout::Panel).unwrap();
        let mut arena = Arena::new();
        let mut prepacked = || {
            let gemm = KernelPolicy::Im2colGemm;
            conv2d_i8_in(&x, in_q, &w, w_q, Some(&packed), None, out_q, &params, gemm, &mut arena)
                .unwrap()
        };
        let first = prepacked();
        prop_assert_eq!(&naive, &first);
        let again = prepacked();
        prop_assert_eq!(&first, &again, "arena reuse changed results");
    }

    /// Exact register-tile shapes (m multiple of MR, n multiple of NR) and
    /// their ±1 neighbours all round-trip the packing bit-exactly. The 1–8
    /// column panels leave the AVX2 kernel's three-panel groups every
    /// remainder (0, 1 and 2 panels), with and without a ragged last
    /// panel, and the reduction depths reach one, two and three K blocks.
    #[test]
    fn packed_i8_gemm_handles_tile_boundaries(
        mi in 1usize..=3,
        ni in 1usize..=7,
        dm in 0usize..=2, // 0: m % MR == 0, else tails
        dn in 0usize..=2,
        k in prop_oneof![Just(17usize), (KC - 1)..=(KC + 2), (2 * KC - 1)..=(2 * KC + 3)],
        seed in 0u64..10_000,
    ) {
        let m = mi * MR + dm;
        let n = ni * NR + dn;
        let mut rng = DetRng::new(seed ^ 0x7E57);
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_i8()).collect();
        prop_assert_eq!(
            packed_gemm(m, k, n, &a, 1, &b, -1),
            scalar_gemm(m, k, n, &a, 1, &b, -1),
            "{}x{}x{}", m, k, n
        );
    }

    /// The fused conv, whose epilogue runs on the GEMM's register tiles,
    /// equals the naive conv plus the reference activation bit for bit, for
    /// all five activations and with biases that saturate, on a fresh arena
    /// and on a reused one. The
    /// vendored proptest does not shrink, so a failure prints the whole case
    /// and the first differing element.
    #[test]
    fn fused_conv_matches_naive_plus_activation(
        (ishape, wshape, params) in fused_cases(),
        seed in 0u64..10_000,
        zps in (-20i8..20, -20i8..20, -20i8..20),
        act in prop_oneof![
            Just(Activation::None),
            Just(Activation::Relu),
            Just(Activation::Relu6),
            Just(Activation::HSwish),
            Just(Activation::HSigmoid),
        ],
    ) {
        let case = format!("{ishape} * {wshape}, {params:?}, zps {zps:?}, {act:?}, seed {seed}");
        let x = rand_i8(ishape, seed);
        let w = rand_i8(wshape, seed + 1);
        let kdim = wshape.c * wshape.h * wshape.w;
        let (in_q, w_q) = (QuantParams::new(0.05, zps.0), QuantParams::new(0.02, zps.1));
        // Accumulators are ~5500·√kdim: this output scale spreads them over
        // the i8 range, and the biases push some past either clamp.
        let out_q = QuantParams::new(0.14 * (kdim as f32).sqrt(), zps.2);
        let acc_scale = in_q.scale * w_q.scale / out_q.scale;
        let mut rng = DetRng::new(seed + 2);
        let bias: Vec<i32> =
            (0..wshape.n).map(|_| (rng.next_u64() % 400_001) as i32 - 200_000).collect();
        let naive =
            conv(&x, in_q, &w, w_q, Some(&bias), out_q, &params, KernelPolicy::Naive).unwrap();
        let want: Vec<i8> = naive.as_slice().iter().map(|&q| reference_act(act, q, out_q)).collect();
        let ep = Epilogue::uniform(bias, acc_scale, out_q, act).unwrap();
        let packed = PackedConv2d::pack_with_layout(&w, w_q, &params, PackLayout::KPair).unwrap();
        // The second call reuses the first's arena, whose scratch is stale.
        let mut arena = Arena::new();
        let mut fused = || conv2d_i8_fused(&x, in_q, &packed, &ep, &params, &mut arena).unwrap();
        let (fresh, reused) = (fused(), fused());
        let got = reused.as_slice();
        prop_assert!(got.len() == want.len(), "{case}: {} outputs, want {}", got.len(), want.len());
        let first = want.iter().zip(got).position(|(w, g)| w != g);
        prop_assert!(
            first.is_none(),
            "{case}: first mismatch at {:?} (want, got)",
            first.map(|i| (i, want[i], got[i]))
        );
        prop_assert!(fresh == reused, "{case}: a reused arena changed the result");
    }
}

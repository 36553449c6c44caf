//! Bit-exactness contracts of the IR-lowered datapath.
//!
//! Two layers of defense, per the fusion design rule ("rewrites change
//! *where* bias/requant/activation run, never their arithmetic"):
//!
//! * a property test drives arbitrary zoo SubNets (random elastic configs,
//!   random inputs) three ways — the tests-side per-layer interpreter
//!   ([`oracle`]), the plan of a fusion-off install
//!   ([`SubgraphCache::build`]) and the plan of a fused install
//!   ([`SubgraphCache::build_fused`]) — and requires identical logits, and
//! * pinned FNV-1a digests guard the arithmetic itself: the digests below
//!   were captured before the IR subsystem existed, so any drift — under
//!   either rewrite catalog — is caught bit-for-bit.

mod oracle;

use proptest::prelude::*;

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward_cached, SubgraphCache};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};
use sushi_wsnet::sampler::ConfigSampler;
use sushi_wsnet::{zoo, SuperNet, WeightStore};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn logits_digest(logits: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(logits.len() * 4);
    for v in logits {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

fn rand_input(net: &SuperNet, seed: u64) -> Tensor<i8> {
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed);
    let f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .expect("shape matches");
    quantize_tensor(&f, act_quant())
}

/// Digests of the **unfused** serving path captured before the IR
/// subsystem was introduced (weight seeds 71/72, input seed `wseed ^
/// 0xABCD`, `DpeArray::new(4, 4)`). The fusion-off datapath must still
/// produce these exact bits; both kernel policies must agree because
/// backend selection never changes logits.
const PRE_IR_DIGESTS: [(&str, &str, u64); 4] = [
    ("Toy-ResNet", "max", 0x1469_3ca5_11cc_9d5f),
    ("Toy-ResNet", "min", 0xcc8c_f89d_0625_55f4),
    ("Toy-MobileNet", "max", 0x7bf6_e6ac_71cc_b60e),
    ("Toy-MobileNet", "min", 0x00ec_a05f_d80a_9f75),
];

fn toy_net(name: &str) -> (SuperNet, u64) {
    match name {
        "Toy-ResNet" => (zoo::toy_supernet(), 71),
        "Toy-MobileNet" => (zoo::toy_mobilenet_supernet(), 72),
        other => panic!("unknown pinned net {other}"),
    }
}

/// Fusion off: the plan lowered without the layout annotation — no fused
/// step, otherwise the fused plan's steps — is bit-identical to the
/// datapath that existed before the IR subsystem (pinned digests).
#[test]
fn fusion_off_digests_match_the_pre_ir_datapath() {
    for (net_name, cfg_name, want) in PRE_IR_DIGESTS {
        let (net, wseed) = toy_net(net_name);
        let store = WeightStore::synthesize(&net, wseed);
        let cfg = if cfg_name == "max" { net.max_config() } else { net.min_config() };
        let sn = net.materialize(cfg_name, &cfg).expect("pinned config");
        let input = rand_input(&net, wseed ^ 0xABCD);
        let cache = SubgraphCache::build(&net, &store, &sn).expect("unfused cache");
        let plan = cache.plan().expect("every install carries a plan");
        let fused = SubgraphCache::build_fused(&net, &store, &sn).expect("fused cache");
        assert_eq!(plan.fused_conv_count(), 0, "fusion off must lower no fused step");
        assert_eq!(plan.steps.len(), fused.plan().expect("plan").steps.len());
        let mut arena = Arena::new();
        for policy in [KernelPolicy::Auto, KernelPolicy::Im2colGemm] {
            let dpe = DpeArray::new(4, 4).with_policy(policy);
            let out = forward_cached(&dpe, &net, &store, &sn, Some(&cache), &mut arena, &input)
                .expect("unfused forward");
            assert_eq!(
                logits_digest(&out.logits),
                want,
                "{net_name}/{cfg_name} ({policy:?}): fusion-off logits drifted from the \
                 pre-IR datapath"
            );
        }
    }
}

/// Fusion on: the IR-lowered plan produces the *same* pinned bits — the
/// rewrite pipeline relocates arithmetic without changing it.
#[test]
fn fused_digests_match_the_same_pins() {
    for (net_name, cfg_name, want) in PRE_IR_DIGESTS {
        let (net, wseed) = toy_net(net_name);
        let store = WeightStore::synthesize(&net, wseed);
        let cfg = if cfg_name == "max" { net.max_config() } else { net.min_config() };
        let sn = net.materialize(cfg_name, &cfg).expect("pinned config");
        let input = rand_input(&net, wseed ^ 0xABCD);
        let cache = SubgraphCache::build_fused(&net, &store, &sn).expect("fused cache");
        assert!(cache.plan().is_some(), "build_fused must install a plan");
        let mut arena = Arena::new();
        let dpe = DpeArray::new(4, 4);
        let out = forward_cached(&dpe, &net, &store, &sn, Some(&cache), &mut arena, &input)
            .expect("fused forward");
        assert_eq!(
            logits_digest(&out.logits),
            want,
            "{net_name}/{cfg_name}: fused logits diverged from the pinned oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary zoo SubNets: the interpreter oracle, the unfused plan and
    /// the fused plan agree bit for bit for random elastic configs and
    /// inputs, on both toy families (dense/residual and depthwise/SE
    /// coverage).
    #[test]
    fn fused_forward_matches_unfused_oracle(
        mobile in prop_oneof![Just(false), Just(true)],
        cfg_seed in 0u64..10_000,
        weight_seed in 0u64..1_000,
        input_seed in 0u64..10_000,
    ) {
        let net = if mobile { zoo::toy_mobilenet_supernet() } else { zoo::toy_supernet() };
        let store = WeightStore::synthesize(&net, weight_seed);
        let mut sampler = ConfigSampler::new(&net, cfg_seed);
        let cfg = sampler.sample_config();
        let sn = net.materialize("prop", &cfg).expect("sampled config must be valid");
        let input = rand_input(&net, input_seed);
        let want = oracle::logits(&net, &store, &sn, &input);
        let plain = SubgraphCache::build(&net, &store, &sn).expect("unfused cache");
        let fused = SubgraphCache::build_fused(&net, &store, &sn).expect("fused cache");
        let dpe = DpeArray::new(4, 4);
        let mut arena = Arena::new();
        let a = forward_cached(&dpe, &net, &store, &sn, Some(&plain), &mut arena, &input)
            .expect("unfused forward");
        let b = forward_cached(&dpe, &net, &store, &sn, Some(&fused), &mut arena, &input)
            .expect("fused forward");
        prop_assert_eq!(&a.logits, &want);
        prop_assert_eq!(&b.logits, &want);
    }
}

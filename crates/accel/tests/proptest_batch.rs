//! Property-based pinning of batched-execution equivalence: for random
//! SubNets, batch sizes, inputs and kernel policies, the batched functional
//! forward returns logits bit-identical to per-query forwards.
//!
//! This is the serving layer's license to batch: dynamic batching (and the
//! `KernelPolicy` the executor runs under) may change *when* work executes,
//! never *what* it computes.

use proptest::prelude::*;

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward_batch_cached, forward_cached};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};
use sushi_wsnet::sampler::ConfigSampler;
use sushi_wsnet::zoo;
use sushi_wsnet::{SuperNet, WeightStore};

fn rand_input(net: &SuperNet, seed: u64) -> Tensor<i8> {
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed);
    let f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .expect("shape matches");
    quantize_tensor(&f, act_quant())
}

fn policy_strategy() -> impl Strategy<Value = KernelPolicy> {
    prop_oneof![Just(KernelPolicy::Naive), Just(KernelPolicy::Im2colGemm), Just(KernelPolicy::Auto),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched == unbatched logits on random toy-ResNet SubNets, for every
    /// kernel policy and batch size.
    #[test]
    fn batched_forward_equals_unbatched_resnet(
        subnet_seed in 0u64..1_000,
        input_seed in 0u64..1_000,
        batch in 1usize..5,
        policy in policy_strategy(),
    ) {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, subnet_seed ^ 0xAB);
        let sn = ConfigSampler::new(&net, subnet_seed).sample_subnets(1).remove(0);
        let dpe = DpeArray::new(4, 4).with_policy(policy);
        let inputs: Vec<Tensor<i8>> =
            (0..batch).map(|i| rand_input(&net, input_seed ^ (i as u64) << 7)).collect();
        let mut arena = Arena::new();
        let batched = forward_batch_cached(&dpe, &net, &store, &sn, None, &mut arena, &inputs)
            .expect("batched forward");
        prop_assert_eq!(batched.len(), batch);
        for (input, out) in inputs.iter().zip(&batched) {
            let single = forward_cached(&dpe, &net, &store, &sn, None, &mut arena, input)
                .expect("single forward");
            prop_assert_eq!(&single, out);
        }
    }

    /// Same property on the toy MobileNet (depthwise + squeeze-excite +
    /// h-swish paths, which exercise the batched SE gating).
    #[test]
    fn batched_forward_equals_unbatched_mobilenet(
        subnet_seed in 0u64..1_000,
        input_seed in 0u64..1_000,
        batch in 1usize..4,
        policy in policy_strategy(),
    ) {
        let net = zoo::toy_mobilenet_supernet();
        let store = WeightStore::synthesize(&net, subnet_seed ^ 0xCD);
        let sn = ConfigSampler::new(&net, subnet_seed).sample_subnets(1).remove(0);
        let dpe = DpeArray::new(4, 4).with_policy(policy);
        let inputs: Vec<Tensor<i8>> =
            (0..batch).map(|i| rand_input(&net, input_seed ^ (i as u64) << 9)).collect();
        let mut arena = Arena::new();
        let batched = forward_batch_cached(&dpe, &net, &store, &sn, None, &mut arena, &inputs)
            .expect("batched forward");
        for (input, out) in inputs.iter().zip(&batched) {
            let single = forward_cached(&dpe, &net, &store, &sn, None, &mut arena, input)
                .expect("single forward");
            prop_assert_eq!(&single, out);
        }
    }

    /// Kernel policy is irrelevant to batched results too: Naive and GEMM
    /// batched forwards agree bit-for-bit.
    #[test]
    fn batched_forward_is_policy_invariant(
        subnet_seed in 0u64..1_000,
        input_seed in 0u64..1_000,
        batch in 1usize..4,
    ) {
        let net = zoo::toy_supernet();
        let store = WeightStore::synthesize(&net, subnet_seed ^ 0xEF);
        let sn = ConfigSampler::new(&net, subnet_seed).sample_subnets(1).remove(0);
        let inputs: Vec<Tensor<i8>> =
            (0..batch).map(|i| rand_input(&net, input_seed ^ (i as u64) << 11)).collect();
        let [naive, gemm] = [KernelPolicy::Naive, KernelPolicy::Im2colGemm].map(|policy| {
            let dpe = DpeArray::new(4, 4).with_policy(policy);
            forward_batch_cached(&dpe, &net, &store, &sn, None, &mut Arena::new(), &inputs)
                .expect("batch forward")
        });
        prop_assert_eq!(naive, gemm);
    }
}
